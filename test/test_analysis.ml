(** Tests of the analysis library: SCCs, condensation, maximum cycle
    ratio, CFC extraction, occupancy, distances, area, timing, buffer
    sizing and retiming. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* SCC *)

let adj edges n =
  let a = Array.make n [] in
  List.iter (fun (u, v) -> a.(u) <- v :: a.(u)) edges;
  fun u -> a.(u)

let test_scc_simple_cycle () =
  let succ = adj [ (0, 1); (1, 2); (2, 0); (2, 3) ] 4 in
  let scc = Analysis.Scc.compute ~nodes:[ 0; 1; 2; 3 ] ~succ in
  checkb "0,1,2 together" (Analysis.Scc.same_component scc 0 2);
  checkb "3 apart" (not (Analysis.Scc.same_component scc 2 3));
  checki "two components" 2 (Analysis.Scc.n_components scc)

let test_scc_two_cycles () =
  let succ = adj [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2) ] 4 in
  let scc = Analysis.Scc.compute ~nodes:[ 0; 1; 2; 3 ] ~succ in
  checki "two SCCs" 2 (Analysis.Scc.n_components scc);
  checkb "0-1" (Analysis.Scc.same_component scc 0 1);
  checkb "2-3" (Analysis.Scc.same_component scc 2 3);
  (* condensation has a single inter-component edge *)
  checki "one condensation edge" 1
    (List.length (Analysis.Scc.condensation scc ~nodes:[ 0; 1; 2; 3 ] ~succ))

let test_scc_topological_order () =
  let nodes = [ 0; 1; 2; 3; 4 ] in
  let succ = adj [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 4); (4, 3) ] 5 in
  let scc = Analysis.Scc.compute ~nodes ~succ in
  let rank = Analysis.Scc.topological_order scc ~nodes ~succ in
  let rank_of n = rank.(Option.get (Analysis.Scc.component_of scc n)) in
  checkb "producer before consumer" (rank_of 0 < rank_of 2);
  checkb "middle before sink SCC" (rank_of 2 < rank_of 4)

let test_scc_scope_restriction () =
  let succ = adj [ (0, 1); (1, 0) ] 2 in
  (* With node 1 out of scope, node 0 is its own (trivial) component. *)
  let scc = Analysis.Scc.compute ~nodes:[ 0 ] ~succ in
  checki "one singleton" 1 (Analysis.Scc.n_components scc)

let test_scc_large_path () =
  (* Deep path: the iterative Tarjan must not blow the stack. *)
  let n = 50_000 in
  let succ u = if u + 1 < n then [ u + 1 ] else [] in
  let scc = Analysis.Scc.compute ~nodes:(List.init n Fun.id) ~succ in
  checki "all singletons" n (Analysis.Scc.n_components scc)

(* ------------------------------------------------------------------ *)
(* Cycle ratio *)

let edge src dst latency tokens = { Analysis.Timed_graph.src; dst; latency; tokens }

let ratio_of = function
  | Analysis.Cycle_ratio.Ratio r -> r
  | other -> Alcotest.failf "expected ratio, got %a" Analysis.Cycle_ratio.pp other

let test_ratio_single_cycle () =
  let r = ratio_of (Analysis.Cycle_ratio.compute [ edge 0 1 3 0; edge 1 0 5 1 ]) in
  checkb "8/1" (Float.abs (r -. 8.0) < 0.01)

let test_ratio_two_tokens () =
  let r = ratio_of (Analysis.Cycle_ratio.compute [ edge 0 1 3 1; edge 1 0 5 1 ]) in
  checkb "8/2" (Float.abs (r -. 4.0) < 0.01)

let test_ratio_max_of_cycles () =
  (* Two disjoint cycles: 6/1 and 9/3; the max governs. *)
  let edges =
    [ edge 0 1 6 0; edge 1 0 0 1; edge 2 3 3 1; edge 3 4 3 1; edge 4 2 3 1 ]
  in
  let r = ratio_of (Analysis.Cycle_ratio.compute edges) in
  checkb "6/1 wins" (Float.abs (r -. 6.0) < 0.01)

let test_ratio_unbounded () =
  checkb "token-free cycle"
    (Analysis.Cycle_ratio.compute [ edge 0 1 1 0; edge 1 0 1 0 ]
    = Analysis.Cycle_ratio.Unbounded)

let test_ratio_acyclic () =
  checkb "no cycle"
    (Analysis.Cycle_ratio.compute [ edge 0 1 5 0; edge 1 2 5 0 ]
    = Analysis.Cycle_ratio.Acyclic)

(* ------------------------------------------------------------------ *)
(* CFC / timed graph *)

let test_backedge_detection () =
  let g = int_stream (fun b i -> Dataflow.Builder.sink b i) in
  let edges = Analysis.Timed_graph.edges g in
  let backedges =
    List.filter (fun (e : Analysis.Timed_graph.edge) ->
        match Dataflow.Graph.kind_of g e.dst with
        | Dataflow.Types.Mux _ ->
            e.tokens > 0 && Dataflow.Graph.is_loop_header g e.dst
        | _ -> false)
      edges
  in
  checki "one token per header backedge" 3 (List.length backedges)

let test_cfc_ii_of_accumulator () =
  (* s += a[i]: the fadd ring plus backedge register gives II = 9. *)
  let c =
    compile
      {|void f(float a[8], float out[1]) {
          float s = 0.0;
          for (int i = 0; i < 8; i++) { s += a[i]; }
          out[0] = s;
        }|}
  in
  let cfc = Analysis.Cfc.of_loop c.Minic.Codegen.graph 0 in
  match Analysis.Cfc.ii_value cfc with
  | Some ii -> checkb "II = fadd latency + 1" (Float.abs (ii -. 9.0) < 0.1)
  | None -> Alcotest.fail "no II"

let test_cfc_memory_bound () =
  let c =
    compile
      {|void f(float a[8], float out[1]) {
          float s = 0.0;
          for (int i = 0; i < 8; i++) { s += a[i] * a[i] * a[i]; }
          out[0] = s;
        }|}
  in
  let cfc = Analysis.Cfc.of_loop c.Minic.Codegen.graph 0 in
  checki "three loads of a per iteration" 3 cfc.Analysis.Cfc.mem_ii

let test_occupancy () =
  let c = compile Kernels.Registry.atax.Kernels.Registry.source in
  let g = c.Minic.Codegen.graph in
  let cfcs = Analysis.Cfc.critical g ~critical_loops:c.Minic.Codegen.critical_loops in
  List.iter
    (fun (cfc : Analysis.Cfc.t) ->
      List.iter
        (fun uid ->
          match Dataflow.Graph.kind_of g uid with
          | Dataflow.Types.Operator { op = Dataflow.Types.Fadd; latency; _ } ->
              let phi = Analysis.Cfc.occupancy g cfc uid in
              checkb "0 < phi <= 1"
                (phi > 0.0 && phi <= float_of_int latency)
          | _ -> ())
        cfc.Analysis.Cfc.units)
    cfcs

(* The per-loop scan the one-pass CFCs replaced: a fold over the units
   for the loop's members, and the whole timed graph filtered to them. *)
let per_loop_scan g loop =
  let units =
    Dataflow.Graph.fold_units g
      (fun acc u ->
        if u.Dataflow.Graph.loop = loop then u.Dataflow.Graph.uid :: acc else acc)
      []
  in
  let scope = Hashtbl.create 97 in
  List.iter (fun u -> Hashtbl.replace scope u ()) units;
  let edges =
    List.filter
      (fun (e : Analysis.Timed_graph.edge) ->
        Hashtbl.mem scope e.src && Hashtbl.mem scope e.dst)
      (Analysis.Timed_graph.edges g)
  in
  (units, edges)

let edge_t =
  Alcotest.testable
    (fun ppf (e : Analysis.Timed_graph.edge) ->
      Fmt.pf ppf "%d->%d lat %d tok %d" e.src e.dst e.latency e.tokens)
    ( = )

(* Every loop's CFC from one pass holds the per-loop scan's units and
   timed edges in the same order, its membership test agrees with the
   loop tags, and its II is the solver's on those edges.  The critical
   CFCs are the same as the loop's CFC in the whole set. *)
let check_one_pass name (c : Minic.Codegen.compiled) =
  let g = c.Minic.Codegen.graph in
  let all = Analysis.Cfc.all g in
  let loops =
    Dataflow.Graph.fold_units g (fun acc u -> u.Dataflow.Graph.loop :: acc) []
    |> List.filter (fun l -> l >= 0)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int))
    (name ^ ": one CFC per loop") loops
    (List.map (fun (cfc : Analysis.Cfc.t) -> cfc.loop_id) all);
  List.iter
    (fun (cfc : Analysis.Cfc.t) ->
      let what = Fmt.str "%s loop %d" name cfc.loop_id in
      let units, edges = per_loop_scan g cfc.loop_id in
      Alcotest.(check (list int)) (what ^ ": units") units cfc.units;
      Alcotest.(check (list edge_t)) (what ^ ": timed edges") edges cfc.edges;
      checkb (what ^ ": ii") (Analysis.Cycle_ratio.compute edges = cfc.ii);
      Dataflow.Graph.iter_units g (fun u ->
          if Analysis.Cfc.mem cfc u.Dataflow.Graph.uid <> (u.Dataflow.Graph.loop = cfc.loop_id)
          then Alcotest.failf "%s: membership of unit %d" what u.Dataflow.Graph.uid))
    all;
  List.iter2
    (fun l (cfc : Analysis.Cfc.t) ->
      let whole = List.find (fun (w : Analysis.Cfc.t) -> w.loop_id = l) all in
      checkb
        (Fmt.str "%s: critical loop %d" name l)
        (cfc.loop_id = l && cfc.units = whole.units && cfc.edges = whole.edges
       && cfc.ii = whole.ii && cfc.mem_ii = whole.mem_ii))
    c.Minic.Codegen.critical_loops
    (Analysis.Cfc.critical g ~critical_loops:c.Minic.Codegen.critical_loops)

let test_one_pass_kernels () =
  List.iter
    (fun (b : Kernels.Registry.bench) ->
      List.iter
        (fun (sname, strategy) ->
          check_one_pass (b.name ^ "/" ^ sname) (compile ~strategy b.source))
        Minic.Codegen.[ ("bb", Bb_ordered); ("fast", Fast_token) ])
    Kernels.Registry.all

let test_one_pass_gesummv () =
  List.iter
    (fun factor ->
      let _, ast = Kernels.Registry.gesummv_unrolled ~n:75 ~factor in
      check_one_pass (Fmt.str "gesummv x%d" factor) (Minic.Codegen.compile ast))
    [ 3; 5; 15; 25 ]

(* ------------------------------------------------------------------ *)
(* Distances *)

let test_max_distance_ring () =
  (* ring 0 -> 1 -> 2 -> 0: the longest simple path 0..2 passes 1. *)
  let succ = adj [ (0, 1); (1, 2); (2, 0) ] 3 in
  let d = Analysis.Distances.create ~budget:1000 ~succ [ 0; 1; 2 ] in
  match Analysis.Distances.max_distance d 0 2 with
  | Ok (Some d) -> checki "one intermediate hop" 1 d
  | _ -> Alcotest.fail "no distance"

let test_distinct_distances () =
  (* diamond inside a ring: equidistant targets are detected. *)
  let succ = adj [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 0) ] 4 in
  let d = Analysis.Distances.create ~budget:20_000 ~succ [ 0; 1; 2; 3 ] in
  let from_0 target = Analysis.Distances.max_distance d 0 target in
  checkb "1 and 2 equidistant from 0"
    (from_0 1 = Ok (Some 0) && from_0 2 = Ok (Some 0))

(* ------------------------------------------------------------------ *)
(* Area / timing *)

let test_area_totals () =
  let g = int_stream (fun b i -> Dataflow.Builder.sink b i) in
  let a = Analysis.Area.total g in
  checkb "has LUTs" (a.Analysis.Area.luts > 0);
  checkb "no DSPs in an integer stream" (a.Analysis.Area.dsps = 0);
  checkb "slices" (Analysis.Area.slices a > 0)

let test_area_fp_units () =
  let c = compile Kernels.Registry.gemm.Kernels.Registry.source in
  check
    Alcotest.(list (pair string int))
    "gemm fp inventory"
    [ ("fadd", 1); ("fmul", 3) ]
    (Analysis.Area.fp_unit_counts c.Minic.Codegen.graph)

let test_area_narrow_buffers_cheaper () =
  let wide =
    Analysis.Area.unit_cost
      (Dataflow.Types.Buffer { slots = 4; transparent = true; init = []; narrow = false })
  in
  let narrow =
    Analysis.Area.unit_cost
      (Dataflow.Types.Buffer { slots = 4; transparent = true; init = []; narrow = true })
  in
  checkb "narrow saves FFs" (narrow.Analysis.Area.ffs < wide.Analysis.Area.ffs)

let test_fits_on () =
  let d = Analysis.Area.kintex7 in
  checkb "zero fits" (Analysis.Area.fits_on d Analysis.Area.zero);
  checkb "too many DSPs"
    (not (Analysis.Area.fits_on d { Analysis.Area.luts = 0; ffs = 0; dsps = 601 }))

let test_cp_positive_and_bounded () =
  let c = compile Kernels.Registry.atax.Kernels.Registry.source in
  let cp = Analysis.Timing.critical_path c.Minic.Codegen.graph in
  checkb "CP in a plausible band" (cp > 1.0 && cp < 15.0)

let test_cp_detects_comb_cycle () =
  (* A transparent-buffer ring with no register is a combinational
     cycle; the timing model must refuse it. *)
  let open Dataflow in
  let g = Graph.create () in
  let b1 =
    Graph.add_unit g
      (Types.Buffer { slots = 1; transparent = true; init = []; narrow = false })
  in
  let p = Graph.add_unit g (Types.Operator { op = Types.Pass; latency = 0; ports = 1 }) in
  ignore (Graph.connect g (b1, 0) (p, 0));
  ignore (Graph.connect g (p, 0) (b1, 0));
  try
    ignore (Analysis.Timing.critical_path g);
    Alcotest.fail "no cycle detected"
  with Analysis.Timing.Combinational_cycle _ -> ()

let test_sharing_increases_cp () =
  let c = compile Kernels.Registry.gsum.Kernels.Registry.source in
  let before = Analysis.Timing.critical_path c.Minic.Codegen.graph in
  ignore
    (Crush.Share.crush c.Minic.Codegen.graph
       ~critical_loops:c.Minic.Codegen.critical_loops);
  let after = Analysis.Timing.critical_path c.Minic.Codegen.graph in
  checkb "wrapper adds combinational delay" (after >= before)

(* ------------------------------------------------------------------ *)
(* Buffer sizing and retiming *)

let test_buffer_sizing_shrinks () =
  (* A slow loop (II ~ 9 from a latency-8 loop-carried dependency) with
     an oversized FIFO: the run-ahead rule shrinks it.  Built by hand so
     codegen's automatic pass is not involved. *)
  let open Dataflow in
  let b = Builder.create () in
  let ctrl = Builder.entry b Types.VUnit in
  let i0 = Builder.const b ~ctrl (Types.VInt 0) in
  let lim = Builder.const b ~ctrl (Types.VInt 16) in
  let s0 = Builder.const b ~ctrl (Types.VInt 0) in
  let exits =
    Builder.counted_loop b ~loop:0 ~inits:[ ctrl; i0; lim; s0 ]
      ~cond:(fun hs ->
        match hs with
        | [ _; i; l; _ ] ->
            Builder.operator b (Types.Icmp Types.Lt) ~latency:0 [ i; l ] ~loop:0
        | _ -> assert false)
      ~body:(fun hs ->
        match hs with
        | [ c; i; l; s ] ->
            (* Loop-carried latency-8 dependency pins the II near 9. *)
            let s' = Builder.operator b Types.Pass ~latency:8 [ s ] ~loop:0 in
            let fat = Builder.slack b i 40 ~loop:0 in
            Builder.sink b fat;
            let one = Builder.const b ~ctrl:i (Types.VInt 1) ~loop:0 in
            let i' = Builder.operator b Types.Iadd ~latency:0 [ i; one ] ~loop:0 in
            [ c; i'; l; s' ]
        | _ -> assert false)
  in
  (match exits with c :: _ -> ignore (Builder.exit_ b c) | [] -> assert false);
  let g = Builder.finalize b in
  let removed = Analysis.Buffer_sizing.rightsize g in
  checkb "slots removed" (removed > 0);
  ignore (run_ok g)

let suite =
  [
    ("scc: simple cycle", `Quick, test_scc_simple_cycle);
    ("scc: two cycles", `Quick, test_scc_two_cycles);
    ("scc: topological order", `Quick, test_scc_topological_order);
    ("scc: scope restriction", `Quick, test_scc_scope_restriction);
    ("scc: deep path (iterative)", `Quick, test_scc_large_path);
    ("ratio: single cycle", `Quick, test_ratio_single_cycle);
    ("ratio: two tokens", `Quick, test_ratio_two_tokens);
    ("ratio: max of cycles", `Quick, test_ratio_max_of_cycles);
    ("ratio: unbounded", `Quick, test_ratio_unbounded);
    ("ratio: acyclic", `Quick, test_ratio_acyclic);
    ("cfc: backedges", `Quick, test_backedge_detection);
    ("cfc: accumulator II", `Quick, test_cfc_ii_of_accumulator);
    ("cfc: memory bound", `Quick, test_cfc_memory_bound);
    ("cfc: occupancy", `Quick, test_occupancy);
    ("distances: ring", `Quick, test_max_distance_ring);
    ("distances: equidistant", `Quick, test_distinct_distances);
    ("area: totals", `Quick, test_area_totals);
    ("area: fp inventory", `Quick, test_area_fp_units);
    ("area: narrow buffers", `Quick, test_area_narrow_buffers_cheaper);
    ("area: fits_on", `Quick, test_fits_on);
    ("timing: CP band", `Quick, test_cp_positive_and_bounded);
    ("timing: comb cycle", `Quick, test_cp_detects_comb_cycle);
    ("timing: sharing adds CP", `Quick, test_sharing_increases_cp);
    ("sizing: shrinks", `Quick, test_buffer_sizing_shrinks);
    ("cfc: one pass = per-loop scan, kernels", `Quick, test_one_pass_kernels);
    ("cfc: one pass = per-loop scan, gesummv x3-x25", `Slow, test_one_pass_gesummv);
  ]
