(** Differential oracle for the cycle-ratio solver: the frozen
    list-and-hashtable solver ([Oracle_cycle_ratio], a verbatim copy)
    against the packed-array solver in [Analysis.Cycle_ratio].  The
    contract is bit-identity: every [Ratio] float must have the same
    IEEE bits and every [Acyclic]/[Unbounded] verdict must agree, on
    small random timed graphs (also with zero and negative latencies),
    on larger random rings with chords (long parent cycles, several
    ratio-iteration steps), on a graph whose first-found cycle is not the
    critical one, on every CFC of every kernel under both codegen
    strategies, on unrolled gesummv up to Table 1's x75, and on every
    rotation-ring graph the In-order baseline evaluates. *)

open Helpers

let edge src dst latency tokens = { Analysis.Timed_graph.src; dst; latency; tokens }

let pp_edges =
  Fmt.(
    brackets
      (list ~sep:semi (fun ppf (e : Analysis.Timed_graph.edge) ->
           pf ppf "%d->%d lat %d tok %d" e.src e.dst e.latency e.tokens)))

let of_oracle = function
  | Oracle_cycle_ratio.Ratio r -> Analysis.Cycle_ratio.Ratio r
  | Oracle_cycle_ratio.Unbounded -> Analysis.Cycle_ratio.Unbounded
  | Oracle_cycle_ratio.Acyclic -> Analysis.Cycle_ratio.Acyclic

let same_result a b =
  match (a, b) with
  | Analysis.Cycle_ratio.Ratio x, Analysis.Cycle_ratio.Ratio y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let pp_exact ppf = function
  | Analysis.Cycle_ratio.Ratio r -> Fmt.pf ppf "Ratio %h" r
  | r -> Analysis.Cycle_ratio.pp ppf r

(* Both solvers on one edge list: [None] when they agree bit for bit
   (result and cycle test), else the disagreement. *)
let mismatch edges =
  let o = of_oracle (Oracle_cycle_ratio.compute edges)
  and r = Analysis.Cycle_ratio.compute edges in
  let oc = Oracle_cycle_ratio.has_cycle edges
  and rc = Analysis.Cycle_ratio.has_cycle edges in
  if same_result o r && oc = rc then None
  else
    Some
      (Fmt.str "oracle %a (cycle %b) vs packed %a (cycle %b)" pp_exact o oc
         pp_exact r rc)

let check_same name edges =
  match mismatch edges with
  | None -> ()
  | Some why -> Alcotest.failf "%s (%d edges): %s" name (List.length edges) why

(* ------------------------------------------------------------------ *)
(* Random timed graphs *)

(* One part: up to 6 nodes and 12 edges, so self-loops, parallel edges
   and token-free cycles are common. *)
let gen_part_with latency =
  QCheck2.Gen.(
    let* n = int_range 1 6 in
    list_size (int_range 0 12)
      (quad (int_bound (n - 1)) (int_bound (n - 1)) latency
         (frequencyl [ (3, 0); (2, 1); (1, 2) ])))

let gen_part = gen_part_with (QCheck2.Gen.int_range 0 9)

let shift off = List.map (fun (s, d, l, t) -> edge (s + off) (d + off) l t)

(* One or two disconnected parts; the second is renumbered from 100. *)
let gen_timed_graph_with part =
  QCheck2.Gen.(
    map2
      (fun a b -> shift 0 a @ shift 100 b)
      part
      (frequency [ (2, return []); (1, part) ]))

let prop_random_graphs =
  qtest ~count:500 "random timed graphs: packed = oracle"
    ~print:(Fmt.str "%a" pp_edges) (gen_timed_graph_with gen_part) (fun edges ->
      mismatch edges = None)

(* Latencies that are mostly zero and sometimes negative: token-free
   cycles of zero latency, which are not unbounded, and token-free
   cycles whose negative latencies cancel their positive ones, where the
   solver falls back from its SCC test to Bellman–Ford. *)
let prop_zero_negative_latencies =
  let latency =
    QCheck2.Gen.frequency
      QCheck2.Gen.[ (3, return 0); (2, int_range 1 9); (1, int_range (-6) (-1)) ]
  in
  qtest ~count:500 "zero and negative latencies: packed = oracle"
    ~print:(Fmt.str "%a" pp_edges)
    (gen_timed_graph_with (gen_part_with latency))
    (fun edges -> mismatch edges = None)

(* A ring of 2-300 nodes carrying at least one token, plus forward
   chords (mostly token-free) and backward chords (1-3 tokens), in
   shuffled list order; sometimes a small part from [gen_part] beside it,
   which may add a token-free cycle.  Parent cycles get long and the
   critical cycle is rarely the first one found. *)
let gen_ring_graph =
  QCheck2.Gen.(
    let* n = int_range 2 300 in
    let* marked = int_bound (n - 1) in
    let* ring =
      flatten_l
        (List.init n (fun i ->
             let+ lat = int_range 0 9
             and+ tok =
               if i = marked then int_range 1 2 else frequencyl [ (4, 0); (1, 1) ]
             in
             edge i ((i + 1) mod n) lat tok))
    in
    let chord =
      let* a = int_bound (n - 1) and* b = int_bound (n - 1) in
      let* lat = int_range 0 9 in
      if a < b then map (edge a b lat) (frequencyl [ (5, 0); (1, 1) ])
      else map (edge a b lat) (int_range 1 3)
    in
    let* chords = list_size (int_bound n) chord in
    let* extra = frequency [ (3, return []); (1, map (shift 1000) gen_part) ] in
    shuffle_l (ring @ chords @ extra))

let prop_ring_graphs =
  qtest ~count:200 "random rings with chords: packed = oracle"
    ~print:(Fmt.str "%a" pp_edges) gen_ring_graph (fun edges ->
      mismatch edges = None)

(* The first cycle found at ratio 0 is not the critical one.  The
   self-loop on node 0 (ratio 1) closes in Bellman–Ford's first round.
   The ring 10 -> 11 -> ... -> 19 -> 10 (latency 30, 10 tokens: ratio 3)
   carries its latency on one edge and lists its zero-latency edges
   against the direction of travel, so it takes ten rounds to close.  The
   search therefore steps 0 -> 1 -> 3. *)
let test_two_step_iteration () =
  let ring =
    List.init 9 (fun k -> edge (18 - k) (19 - k) 0 1) @ [ edge 19 10 30 1 ]
  in
  let edges = (edge 0 0 1 1 :: ring) @ [ edge 0 10 0 0 ] in
  check_same "self-loop then ring" edges;
  match Analysis.Cycle_ratio.compute edges with
  | Analysis.Cycle_ratio.Ratio r ->
      Alcotest.(check bool) "ratio 3 within eps" true (Float.abs (r -. 3.0) <= 1e-4)
  | r -> Alcotest.failf "expected ratio 3, got %a" Analysis.Cycle_ratio.pp r

(* ------------------------------------------------------------------ *)
(* Circuits *)

(* Every CFC of the circuit, plus the whole timed graph. *)
let check_circuit name (c : Minic.Codegen.compiled) =
  let g = c.Minic.Codegen.graph in
  check_same (name ^ " whole circuit") (Analysis.Timed_graph.edges g);
  List.iter
    (fun (cfc : Analysis.Cfc.t) ->
      check_same (Fmt.str "%s loop %d" name cfc.loop_id) cfc.edges)
    (Analysis.Cfc.all g)

let strategies = Minic.Codegen.[ ("bb", Bb_ordered); ("fast", Fast_token) ]

let test_kernel_cfcs () =
  List.iter
    (fun (b : Kernels.Registry.bench) ->
      List.iter
        (fun (sname, strategy) ->
          check_circuit
            (b.Kernels.Registry.name ^ "/" ^ sname)
            (compile ~strategy b.Kernels.Registry.source))
        strategies)
    Kernels.Registry.all

let test_gesummv_cfcs () =
  List.iter
    (fun factor ->
      let _, ast = Kernels.Registry.gesummv_unrolled ~n:75 ~factor in
      check_circuit (Fmt.str "gesummv x%d" factor) (Minic.Codegen.compile ast))
    [ 3; 5; 15; 25 ]

(* Table 1's circuit: the whole graph has 2,159 edges. *)
let test_gesummv_x75 () =
  let _, ast = Kernels.Registry.gesummv_unrolled ~n:75 ~factor:75 in
  check_circuit "gesummv x75" (Minic.Codegen.compile ast)

(* Replays In-order's greedy search step for step (candidate order, rule
   checks, first profitable merge wins) and checks every rotation-ring
   graph it builds.  The replay's evaluation count must equal the
   library's, which pins the replay to the real search. *)
let check_inorder_rings name (c : Minic.Codegen.compiled) =
  let g = c.Minic.Codegen.graph in
  let critical_loops = c.Minic.Codegen.critical_loops
  and conditional_bbs = c.Minic.Codegen.conditional_bbs in
  let ctx = Crush.Context.make g ~critical_loops in
  let evaluations = ref 0 in
  let evaluate ops =
    incr evaluations;
    List.iter
      (fun (cfc : Analysis.Cfc.t) ->
        Option.iter
          (check_same (Fmt.str "%s ring in loop %d" name cfc.Analysis.Cfc.loop_id))
          (Crush.Inorder.rotation_graph ctx cfc ops))
      ctx.Crush.Context.critical;
    Crush.Inorder.rotation_preserves_ii ctx ops
  in
  let rec search groups =
    let arr = Array.of_list groups in
    let n = Array.length arr in
    let merge i j =
      let ops = arr.(i) @ arr.(j) in
      Crush.Groups.check_r1 ctx ops && Crush.Groups.check_r2 ctx ops
      && Crush.Inorder.bb_legal g ~conditional_bbs ops
      && evaluate ops
      && Crush.Cost.merge_profitable
           ~op:(Option.get (Crush.Context.opcode_of ctx (List.hd ops)))
           ~credit:
             (List.fold_left (fun m o -> max m (Crush.Context.credits_for ctx o)) 1 ops)
           ~a:(List.length arr.(i)) ~b:(List.length arr.(j))
    in
    let pairs =
      Seq.concat_map (fun i -> Seq.map (fun j -> (i, j)) (Seq.init (n - i - 1) (( + ) (i + 1))))
        (Seq.init n Fun.id)
    in
    match Seq.find (fun (i, j) -> merge i j) pairs with
    | Some (i, j) ->
        search ((arr.(i) @ arr.(j)) :: List.filteri (fun k _ -> k <> i && k <> j) groups)
    | None -> ()
  in
  search (List.map (fun o -> [ o ]) (Crush.Context.candidates ctx));
  let r =
    Crush.Inorder.share (Dataflow.Graph.copy g) ~critical_loops ~conditional_bbs
  in
  checki (name ^ ": replayed evaluations") r.Crush.Inorder.evaluations !evaluations

let test_inorder_rings () =
  List.iter
    (fun (b : Kernels.Registry.bench) ->
      List.iter
        (fun (sname, strategy) ->
          check_inorder_rings
            (b.Kernels.Registry.name ^ "/" ^ sname)
            (compile ~strategy b.Kernels.Registry.source))
        strategies)
    Kernels.Registry.all;
  List.iter
    (fun factor ->
      let _, ast = Kernels.Registry.gesummv_unrolled ~n:75 ~factor in
      check_inorder_rings (Fmt.str "gesummv x%d" factor) (Minic.Codegen.compile ast))
    [ 3; 5 ]

let suite =
  [
    prop_random_graphs;
    prop_ring_graphs;
    Alcotest.test_case "oracle: first cycle found is not critical" `Quick
      test_two_step_iteration;
    Alcotest.test_case "oracle: kernel CFCs, both strategies" `Quick test_kernel_cfcs;
    Alcotest.test_case "oracle: gesummv x3-x25 CFCs" `Slow test_gesummv_cfcs;
    Alcotest.test_case "oracle: Table 1 gesummv x75" `Slow test_gesummv_x75;
    Alcotest.test_case "oracle: In-order rotation rings" `Slow test_inorder_rings;
    prop_zero_negative_latencies;
  ]
