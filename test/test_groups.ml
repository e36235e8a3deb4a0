(** Differential oracle for Algorithm 1: the frozen greedy search
    ([Oracle_groups], a verbatim copy that re-checks rules R1-R3 on every
    pair of each tentative merge) against [Crush.Groups.infer], which
    carries per-group facts, memoizes refusals and checks R3 only on the
    pairs across the two groups.  The contract is identity: the same
    groups, in the same order, with members in the same order, on every
    kernel under both codegen strategies, on unrolled gesummv up to the
    fully unrolled Table 1 circuit, on dense accumulators whose SCCs
    reach and pass rule R3's 48-member cap, with R3 disabled, with a
    non-default candidate set, and on random generated kernels.  The
    per-source distance enumeration behind R3 is pinned separately
    against the frozen per-target one on random digraphs. *)

open Helpers

let ops_of groups = List.map (fun (g : Crush.Groups.group) -> g.Crush.Groups.ops) groups

(* Both searches on one context, under each knob setting the ablation
   studies use: the default, R3 off, and integer multipliers only. *)
let variants =
  [
    ("default", None, None);
    ("R3 off", None, Some false);
    ("Imul only", Some [ Dataflow.Types.Imul ], None);
  ]

let mismatch ctx =
  List.find_map
    (fun (vname, shareable, enforce_r3) ->
      let want = ops_of (Oracle_groups.infer ?shareable ?enforce_r3 ctx)
      and got = ops_of (Crush.Groups.infer ?shareable ?enforce_r3 ctx) in
      if want = got then None else Some (vname, want, got))
    variants

let pp_groups = Fmt.(brackets (list ~sep:semi (brackets (list ~sep:comma int))))

let check_ctx name ctx =
  match mismatch ctx with
  | None -> ()
  | Some (vname, want, got) ->
      Alcotest.failf "%s (%s): oracle %a@.library %a" name vname pp_groups want
        pp_groups got

let context (c : Minic.Codegen.compiled) =
  Crush.Context.make c.Minic.Codegen.graph
    ~critical_loops:c.Minic.Codegen.critical_loops

let strategies = Minic.Codegen.[ ("bb", Bb_ordered); ("fast", Fast_token) ]

let test_kernels () =
  List.iter
    (fun (b : Kernels.Registry.bench) ->
      List.iter
        (fun (sname, strategy) ->
          check_ctx
            (b.Kernels.Registry.name ^ "/" ^ sname)
            (context (compile ~strategy b.Kernels.Registry.source)))
        strategies)
    Kernels.Registry.all

let check_gesummv factor =
  let _, ast = Kernels.Registry.gesummv_unrolled ~n:75 ~factor in
  check_ctx (Fmt.str "gesummv x%d" factor) (context (Minic.Codegen.compile ast))

let test_gesummv () = List.iter check_gesummv [ 3; 5; 15; 25 ]
let test_table1 () = check_gesummv 75

let prop_random_kernels =
  qtest ~count:40 ~speed_level:`Quick "random kernels: groups = oracle"
    ~print:(fun (kernel, (sname, _)) ->
      Fmt.str "%s strategy on:@.%s" sname (Minic.Print.to_string kernel))
    QCheck2.Gen.(pair Test_properties.gen_kernel_ast (oneofl strategies))
    (fun (kernel, (_, strategy)) ->
      ignore (Minic.Sema.check kernel);
      mismatch (context (Minic.Codegen.compile ~strategy kernel)) = None)

(* A dense accumulator: [body] repeated [k] times in one loop, every
   statement reading the loop-carried [s] more than once.  Its SCC holds
   all the fmuls and fadds, in a chain of diamonds whose simple paths
   double with every statement. *)
let dense body k =
  Fmt.str
    {|void dense(float A[64], float y[1]) {
  float s = 1.0;
  for (int i = 0; i < 64; i++) {
    float a = A[i];
%s
  }
  y[0] = s;
}|}
    (String.concat "\n" (List.init k (fun _ -> "    " ^ body)))

(* The largest SCC of a critical CFC holding two or more candidates. *)
let largest_shared_scc ctx =
  let cands = Crush.Context.candidates ctx in
  List.fold_left
    (fun acc (cfc : Analysis.Cfc.t) ->
      let scc = Crush.Context.sccs_of ctx cfc.Analysis.Cfc.loop_id in
      List.fold_left
        (fun acc cid ->
          let members = Analysis.Scc.members scc cid in
          if List.length (List.filter (fun o -> List.mem o members) cands) >= 2
          then max acc (List.length members)
          else acc)
        acc
        (List.init (Analysis.Scc.n_components scc) Fun.id))
    0 ctx.Crush.Context.critical

let check_dense (body, k, scc_members) =
  List.iter
    (fun (sname, strategy) ->
      let name = Fmt.str "%s x%d/%s" body k sname in
      let ctx = context (compile ~strategy (dense body k)) in
      checki (name ^ ": SCC members") scc_members (largest_shared_scc ctx);
      check_ctx name ctx)
    strategies

let test_dense () =
  List.iter check_dense
    [
      ("s = s * a + s;", 6, 28);
      ("s = s * a + s;", 8, 36);
      ("s = s * a + s;", 12, 52);
      ("s = s * a + s * a + s;", 4, 29);
    ]

let test_dense_cap () = check_dense ("s = s * a + s;", 11, 48)

(* Random digraphs of [n] nodes: each ordered pair an edge with
   probability [p], self-loops included, plus duplicate edges.  A
   complete digraph blows the per-target budget of 20,000 from 9 nodes,
   and a small budget makes every size exercise the fallback. *)
let gen_digraph =
  QCheck2.Gen.(
    let* n = int_range 2 10 in
    let* p = oneofl [ 0.2; 0.4; 0.6; 0.8; 1.0 ] in
    let* budget = frequency [ (3, pure 20_000); (1, int_range 1 400) ] in
    let* edges =
      flatten_l
        (List.concat_map
           (fun u ->
             List.init n (fun v ->
                 map (fun x -> if x < p then [ (u, v) ] else []) (float_bound_exclusive 1.0)))
           (List.init n Fun.id))
    in
    let edges = List.concat edges in
    let* dups =
      if edges = [] then pure []
      else list_size (int_range 0 n) (oneofl edges)
    in
    pure (n, budget, edges @ dups))

let prop_distances =
  qtest ~count:60 ~speed_level:`Quick "distances: per-source = per-target"
    ~print:(fun (n, budget, edges) ->
      Fmt.str "%d nodes, budget %d, edges %a" n budget
        Fmt.(list ~sep:sp (pair ~sep:(any "->") int int))
        edges)
    gen_digraph
    (fun (n, budget, edges) ->
      let adj = Array.make n [] in
      List.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) (List.rev edges);
      let succ u = adj.(u) in
      let nodes = List.init n Fun.id in
      let d = Analysis.Distances.create ~budget ~succ nodes in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              Analysis.Distances.max_distance d src dst
              = Oracle_groups.max_distance ~succ ~in_scope:(fun _ -> true)
                  ~budget src dst)
            nodes)
        nodes)

let suite =
  [
    Alcotest.test_case "oracle: kernels, both strategies" `Quick test_kernels;
    Alcotest.test_case "oracle: gesummv x3-x25" `Quick test_gesummv;
    Alcotest.test_case "oracle: Table 1 x75" `Slow test_table1;
    prop_random_kernels;
    Alcotest.test_case "oracle: dense accumulators" `Quick test_dense;
    Alcotest.test_case "oracle: dense accumulator at the R3 cap" `Slow
      test_dense_cap;
    prop_distances;
  ]
