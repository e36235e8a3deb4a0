(** Tests of the core CRUSH library: cost model, sharing-group heuristic
    (Algorithm 1), priority heuristic (Algorithm 2), credit allocation
    (Equation 3), wrapper construction (Figure 3), the full pass, the
    In-order baseline, and the paper's motivating examples. *)

open Dataflow
open Dataflow.Types
open Helpers

(* ------------------------------------------------------------------ *)
(* Cost model (Equation 2) *)

let test_cwp_monotone () =
  let credit = 2 in
  let prev = ref 0 in
  for n = 2 to 13 do
    let c = Crush.Cost.cwp ~op:Fadd ~n ~credit in
    checkb "wrapper cost grows with group size" (c > !prev);
    prev := c
  done

let test_cwp_singleton_free () =
  checki "no wrapper for singleton" 0 (Crush.Cost.cwp ~op:Fadd ~n:1 ~credit:2)

let test_merge_profitable_fp_not_int () =
  checkb "sharing fadds pays"
    (Crush.Cost.merge_profitable ~op:Fadd ~credit:2 ~a:1 ~b:1);
  checkb "sharing integer adders does not pay"
    (not (Crush.Cost.merge_profitable ~op:Iadd ~credit:2 ~a:1 ~b:1))

let test_eq2_total () =
  (* One group of 4 is cheaper than 4 singletons for fadd. *)
  let grouped = Crush.Cost.total ~op:Fadd ~credit:2 [ 4 ] in
  let apart = Crush.Cost.total ~op:Fadd ~credit:2 [ 1; 1; 1; 1 ] in
  checkb "grouping reduces Eq. 2" (grouped < apart)

let test_platform_crossovers () =
  (* Gate-equivalent ASIC pricing makes sharing pay at least as early as
     the DSP-weighted FPGA pricing for the FP units, and integer adders
     never pay on either platform. *)
  let cross p op = Crush.Cost.crossover_on p ~op ~credit:2 in
  List.iter
    (fun op ->
      match (cross Crush.Cost.Fpga op, cross Crush.Cost.Asic op) with
      | Some f, Some a -> checkb "ASIC crossover no later" (a <= f)
      | None, _ -> Alcotest.fail "fp sharing should pay on FPGA"
      | Some _, None -> Alcotest.fail "fp sharing should pay on ASIC")
    [ Fadd; Fmul ];
  checkb "integer adders never pay (FPGA)"
    (cross Crush.Cost.Fpga Iadd = None)

let test_wrapper_preserves_stream_order () =
  (* Each operation's own token stream leaves the wrapper in issue order:
     fig1c's memory check validates values, here we check the store
     stream explicitly through a shared pair on the stream circuit. *)
  let b = Crush.Paper_examples.fig1 ~iterations:32 () in
  let g =
    Crush.Paper_examples.share_pair b
      ~ops:[ b.Crush.Paper_examples.m2; b.Crush.Paper_examples.m3 ]
      `Credits
  in
  let memory = Sim.Memory.of_graph g in
  ignore (run_ok ~memory g);
  let got = Sim.Memory.get_floats memory "a" in
  let want = Crush.Paper_examples.fig1_expected 32 in
  Array.iteri
    (fun i v -> checkb "ordered results" (v = float_of_int want.(i)))
    got

let test_wrapper_components_labels () =
  let comps = Crush.Cost.wrapper_components ~op:Fadd ~n:3 ~credits:[ 2; 2; 2 ] in
  let labels = List.map fst comps in
  List.iter
    (fun want -> checkb ("component " ^ want) (List.mem want labels))
    [
      "credit counters"; "joins"; "branch"; "condition buffer";
      "merges and muxes"; "output buffers";
    ]

(* ------------------------------------------------------------------ *)
(* Context: candidates, occupancy, credits *)

let atax_ctx () =
  let c = compile Kernels.Registry.atax.Kernels.Registry.source in
  ( c,
    Crush.Context.make c.Minic.Codegen.graph
      ~critical_loops:c.Minic.Codegen.critical_loops )

let test_candidates_are_fp () =
  let c, ctx = atax_ctx () in
  let cands = Crush.Context.candidates ctx in
  checki "atax has 4 fp units" 4 (List.length cands);
  List.iter
    (fun uid ->
      match Graph.kind_of c.Minic.Codegen.graph uid with
      | Operator { op = Fadd | Fmul; _ } -> ()
      | _ -> Alcotest.fail "non-fp candidate")
    cands

let test_credits_formula () =
  let _, ctx = atax_ctx () in
  List.iter
    (fun uid ->
      let phi = Crush.Context.max_occupancy ctx uid in
      checki "ceil(phi)+1"
        (int_of_float (Float.ceil phi) + 1)
        (Crush.Context.credits_for ctx uid))
    (Crush.Context.candidates ctx)

(* ------------------------------------------------------------------ *)
(* Groups (Algorithm 1) *)

let test_r1_type_rule () =
  let _, ctx = atax_ctx () in
  let cands = Crush.Context.candidates ctx in
  let fadds =
    List.filter (fun o -> Crush.Context.opcode_of ctx o = Some Fadd) cands
  in
  let fmuls =
    List.filter (fun o -> Crush.Context.opcode_of ctx o = Some Fmul) cands
  in
  checkb "fadds agree" (Crush.Groups.check_r1 ctx fadds);
  checkb "mixed types refused"
    (not (Crush.Groups.check_r1 ctx [ List.hd fadds; List.hd fmuls ]))

let test_r2_capacity_rule () =
  (* Force a high-occupancy context: the custom Horner kernel at fast
     token runs near II 1, so its fadds are nearly fully occupied and
     a 2-op group busts the capacity. *)
  let src =
    {|void f(float x[64], float y[64]) {
        for (int i = 0; i < 64; i++) {
          y[i] = (x[i] + 1.0) + (x[i] + 2.0);
        }
      }|}
  in
  let c = compile ~strategy:Minic.Codegen.Fast_token src in
  let ctx =
    Crush.Context.make c.Minic.Codegen.graph
      ~critical_loops:c.Minic.Codegen.critical_loops
  in
  let cands = Crush.Context.candidates ctx in
  let sum_phi =
    List.fold_left (fun a o -> a +. Crush.Context.max_occupancy ctx o) 0.0 cands
  in
  if sum_phi > 8.0 then
    checkb "R2 refuses over-capacity groups" (not (Crush.Groups.check_r2 ctx cands))
  else checkb "R2 accepts" (Crush.Groups.check_r2 ctx cands)

let test_r3_same_scc_refused () =
  (* The paper's minimal Figure 5: M1 and M2 equidistant from every other
     SCC member — rule R3 must refuse the pair. *)
  let g, m1, m2 = Crush.Paper_examples.fig5_minimal () in
  let ctx = Crush.Context.make g ~critical_loops:[ 0 ] in
  checkb "same SCC" (
    let scc = Crush.Context.sccs_of ctx 0 in
    Analysis.Scc.same_component scc m1 m2);
  checkb "fig5 M1/M2 refused" (not (Crush.Groups.check_r3 ctx [ m1; m2 ]));
  (* And the whole heuristic builds no group. *)
  let groups =
    Crush.Groups.sharing_groups
      (Crush.Groups.infer ~shareable:[ Imul ] ctx)
  in
  checki "no sharing groups" 0 (List.length groups)

let test_r3_feedforward_allowed () =
  let _, ctx = atax_ctx () in
  let fadds =
    List.filter
      (fun o -> Crush.Context.opcode_of ctx o = Some Fadd)
      (Crush.Context.candidates ctx)
  in
  checkb "cross-nest fadds pass R3" (Crush.Groups.check_r3 ctx fadds)

let test_groups_greedy_merges_atax () =
  let _, ctx = atax_ctx () in
  let groups = Crush.Groups.infer ctx in
  let sharing = Crush.Groups.sharing_groups groups in
  checki "two sharing groups (fadd, fmul)" 2 (List.length sharing);
  List.iter
    (fun (g : Crush.Groups.group) -> checki "pairs" 2 (List.length g.Crush.Groups.ops))
    sharing

(* ------------------------------------------------------------------ *)
(* Priority (Algorithm 2) *)

let test_priority_producer_first () =
  (* gemm's two chained fmuls in the inner loop: the producer must come
     first in the priority list. *)
  let c = compile Kernels.Registry.gemm.Kernels.Registry.source in
  let g = c.Minic.Codegen.graph in
  let ctx = Crush.Context.make g ~critical_loops:c.Minic.Codegen.critical_loops in
  let inner_fmuls =
    List.filter
      (fun o ->
        Crush.Context.opcode_of ctx o = Some Fmul
        && List.exists
             (fun (cfc : Analysis.Cfc.t) -> Analysis.Cfc.mem cfc o)
             ctx.Crush.Context.critical)
      (Crush.Context.candidates ctx)
  in
  checki "two inner fmuls" 2 (List.length inner_fmuls);
  let ordered = Crush.Priority.infer ctx inner_fmuls in
  (* the producer is the one with a directed path to the other *)
  let rec reaches seen u v =
    u = v
    || (not (List.mem u seen))
       && List.exists (fun w -> reaches (u :: seen) w v) (Graph.successors g u)
  in
  match ordered with
  | [ first; second ] -> checkb "producer first" (reaches [] first second)
  | _ -> Alcotest.fail "expected a pair"

let test_priority_is_permutation () =
  let _, ctx = atax_ctx () in
  let cands = Crush.Context.candidates ctx in
  let ordered = Crush.Priority.infer ctx cands in
  checkb "permutation" (List.sort compare ordered = List.sort compare cands)

(* ------------------------------------------------------------------ *)
(* Wrapper (Figure 3) *)

let test_wrapper_structure () =
  let b = Crush.Paper_examples.fig1 () in
  let g = b.Crush.Paper_examples.graph in
  let before = Graph.live_unit_count g in
  let shared =
    Crush.Wrapper.apply g
      {
        Crush.Wrapper.ops = [ b.Crush.Paper_examples.m2; b.Crush.Paper_examples.m3 ];
        credits = [ 2; 2 ];
        policy = Priority [ 0; 1 ];
        ob_slots = None;
      }
  in
  Validate.check_exn g;
  (* 2 removed ops; added: arbiter, shared, cond buffer, branch, and per
     op: cc + join + ob + lazy fork = 8. *)
  checki "unit delta" (before - 2 + 4 + 8) (Graph.live_unit_count g);
  (match Graph.kind_of g shared with
  | Operator { op = Imul; ports = 1; _ } -> ()
  | _ -> Alcotest.fail "shared unit kind");
  checkb "originals gone" (not (Graph.is_live g b.Crush.Paper_examples.m2))

let test_wrapper_rejects_bad_specs () =
  let b = Crush.Paper_examples.fig1 () in
  let g = b.Crush.Paper_examples.graph in
  Alcotest.check_raises "singleton group"
    (Invalid_argument "Wrapper.apply: group of fewer than 2 operations")
    (fun () ->
      ignore
        (Crush.Wrapper.apply g
           {
             Crush.Wrapper.ops = [ b.Crush.Paper_examples.m1 ];
             credits = [ 1 ];
             policy = Priority [ 0 ];
             ob_slots = None;
           }));
  Alcotest.check_raises "credit arity"
    (Invalid_argument "Wrapper.apply: one credit count per operation required")
    (fun () ->
      ignore
        (Crush.Wrapper.apply g
           {
             Crush.Wrapper.ops =
               [ b.Crush.Paper_examples.m1; b.Crush.Paper_examples.m2 ];
             credits = [ 1 ];
             policy = Priority [ 0; 1 ];
             ob_slots = None;
           }))

let test_wrapper_eq1_by_default () =
  (* With default sizing, N_OB = N_CC: simulate and complete. *)
  let b = Crush.Paper_examples.fig1 () in
  let g =
    Crush.Paper_examples.share_pair b
      ~ops:[ b.Crush.Paper_examples.m2; b.Crush.Paper_examples.m3 ]
      `Credits
  in
  ignore (run_ok g)

(* ------------------------------------------------------------------ *)
(* Full CRUSH pass *)

let crush_bench ?(strategy = Minic.Codegen.Bb_ordered) name =
  let bench = Kernels.Registry.find name in
  let c = compile ~strategy bench.Kernels.Registry.source in
  let r =
    Crush.Share.crush c.Minic.Codegen.graph
      ~critical_loops:c.Minic.Codegen.critical_loops
  in
  (bench, c, r)

let test_crush_shares_everything_regular () =
  List.iter
    (fun name ->
      let _, c, _ = crush_bench name in
      check
        Alcotest.(list (pair string int))
        (name ^ " fully shared")
        [ ("fadd", 1); ("fmul", 1) ]
        (Analysis.Area.fp_unit_counts c.Minic.Codegen.graph))
    [ "atax"; "bicg"; "2mm"; "3mm"; "gemm"; "gesummv"; "mvt"; "symm"; "syr2k" ]

let test_crush_preserves_function () =
  List.iter
    (fun name ->
      let bench, c, _ = crush_bench name in
      let v = Kernels.Harness.run_circuit bench c.Minic.Codegen.graph in
      checkb (name ^ " correct after sharing") v.Kernels.Harness.functionally_correct)
    [ "atax"; "gsum"; "gsumif"; "mvt" ]

let test_crush_performance_near_naive () =
  List.iter
    (fun name ->
      let bench = Kernels.Registry.find name in
      let c0 = compile bench.Kernels.Registry.source in
      let v0 = Kernels.Harness.run_circuit bench c0.Minic.Codegen.graph in
      let _, c1, _ = crush_bench name in
      let v1 = Kernels.Harness.run_circuit bench c1.Minic.Codegen.graph in
      let ratio =
        float_of_int v1.Kernels.Harness.cycles
        /. float_of_int v0.Kernels.Harness.cycles
      in
      checkb (Fmt.str "%s within 5%% (%.3f)" name ratio) (ratio < 1.05))
    [ "atax"; "gsum"; "2mm"; "syr2k" ]

let test_crush_report_consistent () =
  let _, c, r = crush_bench "3mm" in
  checki "two groups" 2 (List.length r.Crush.Share.groups);
  List.iter
    (fun (grp : Crush.Share.shared_group) ->
      checki "credits per member"
        (List.length grp.Crush.Share.members)
        (List.length grp.Crush.Share.credits);
      checkb "shared unit live"
        (Graph.is_live c.Minic.Codegen.graph grp.Crush.Share.shared_unit))
    r.Crush.Share.groups

let test_crush_on_fast_token () =
  let bench = Kernels.Registry.find "gsum" in
  let c = compile ~strategy:Minic.Codegen.Fast_token bench.Kernels.Registry.source in
  ignore
    (Crush.Share.crush c.Minic.Codegen.graph
       ~critical_loops:c.Minic.Codegen.critical_loops);
  let v = Kernels.Harness.run_circuit bench c.Minic.Codegen.graph in
  checkb "fast-token + CRUSH correct" v.Kernels.Harness.functionally_correct

(* ------------------------------------------------------------------ *)
(* In-order baseline *)

let inorder_bench name =
  let bench = Kernels.Registry.find name in
  let c = compile bench.Kernels.Registry.source in
  let r =
    Crush.Inorder.share c.Minic.Codegen.graph
      ~critical_loops:c.Minic.Codegen.critical_loops
      ~conditional_bbs:c.Minic.Codegen.conditional_bbs
  in
  (bench, c, r)

let test_inorder_gsum_shares_almost_nothing () =
  (* The paper's In-order shares nothing on gsum.  Ours may legally pair
     two adjacent chained fadds (the rotation exactly matches the ring's
     II), but the irregular kernel stays essentially unshared — the gulf
     to CRUSH's 1 fadd + 1 fmul is the point. *)
  let _, c, r = inorder_bench "gsum" in
  checkb "at most one pair" (List.length r.Crush.Inorder.groups <= 1);
  let fp = Analysis.Area.fp_unit_counts c.Minic.Codegen.graph in
  let count name = Option.value (List.assoc_opt name fp) ~default:0 in
  checkb "fadds essentially unshared" (count "fadd" >= 4);
  checkb "fmuls essentially unshared" (count "fmul" >= 3)

let test_inorder_regular_kernels_share () =
  let _, c, _ = inorder_bench "atax" in
  check
    Alcotest.(list (pair string int))
    "atax shared"
    [ ("fadd", 1); ("fmul", 1) ]
    (Analysis.Area.fp_unit_counts c.Minic.Codegen.graph)

let test_inorder_correct () =
  List.iter
    (fun name ->
      let bench, c, _ = inorder_bench name in
      let v = Kernels.Harness.run_circuit bench c.Minic.Codegen.graph in
      checkb (name ^ " correct under In-order") v.Kernels.Harness.functionally_correct)
    [ "atax"; "2mm"; "symm" ]

let test_inorder_needs_bbs () =
  let bench = Kernels.Registry.find "atax" in
  let c = compile ~strategy:Minic.Codegen.Fast_token bench.Kernels.Registry.source in
  let r =
    Crush.Inorder.share c.Minic.Codegen.graph
      ~critical_loops:c.Minic.Codegen.critical_loops ~conditional_bbs:[]
  in
  checki "no BB organization, no sharing" 0 (List.length r.Crush.Inorder.groups)

let test_inorder_pays_evaluations () =
  let _, _, r = inorder_bench "symm" in
  checkb "repeated performance evaluations" (r.Crush.Inorder.evaluations > 1)

(* ------------------------------------------------------------------ *)
(* Sharing decisions on large circuits, pinned so that a change to the
   analysis cannot silently change which units get shared. *)

let gesummv_x factor =
  let _, ast = Kernels.Registry.gesummv_unrolled ~n:75 ~factor in
  Minic.Codegen.compile ast

let check_crush_pin factor sizes singles =
  let c = gesummv_x factor in
  let r =
    Crush.Share.crush c.Minic.Codegen.graph
      ~critical_loops:c.Minic.Codegen.critical_loops
  in
  check Alcotest.(list int)
    (Fmt.str "x%d group sizes" factor)
    sizes
    (List.map (fun (g : Crush.Share.shared_group) -> List.length g.members) r.groups);
  checki (Fmt.str "x%d singles" factor) singles r.singles

let test_crush_gesummv_pins () =
  check_crush_pin 5 [ 11; 12 ] 0;
  check_crush_pin 15 [ 31; 32 ] 0;
  check_crush_pin 25 [ 51; 52 ] 0

let test_crush_table1_pin () = check_crush_pin 75 [ 2; 150; 150 ] 1

(* Today's access-priority orders and credits.  [Share.crush] ranks each
   group after the earlier groups' wrappers are in the graph, so the
   order depends on that partly rewritten graph (DESIGN.md,
   "Limitations"); ranking on the original graph would change these
   orders, e.g. gsum's fmuls to [30; 35; 40; 46]. *)
let test_crush_priority_pins () =
  let groups name (c : Minic.Codegen.compiled) =
    let r =
      Crush.Share.crush c.Minic.Codegen.graph
        ~critical_loops:c.Minic.Codegen.critical_loops
    in
    check
      Alcotest.(list (pair (list int) (list int)))
      (name ^ ": members and credits")
      (List.map (fun (g : Crush.Share.shared_group) -> (g.members, g.credits)) r.groups)
  in
  let twos n = List.init n (fun _ -> 2) in
  List.iter
    (fun strategy ->
      let name k = k ^ "/" ^ Minic.Codegen.string_of_strategy strategy in
      groups (name "gsum")
        (compile ~strategy Kernels.Registry.gsum.Kernels.Registry.source)
        [ ([ 33; 38; 43; 49; 51 ], twos 5); ([ 46; 30; 40; 35 ], twos 4) ];
      groups (name "gsumif")
        (compile ~strategy Kernels.Registry.gsumif.Kernels.Registry.source)
        [
          ([ 56; 33; 38; 43; 49; 51 ], twos 6); ([ 46; 59; 53; 30; 40; 35 ], twos 6);
        ])
    Minic.Codegen.[ Bb_ordered; Fast_token ];
  groups "gesummv x15" (gesummv_x 15)
    [
      ( [ 51; 71; 95; 119; 143; 167; 191; 215; 239; 263; 287; 311; 335; 359; 383;
          59; 83; 107; 131; 155; 179; 203; 227; 251; 275; 299; 323; 347; 371; 395;
          416 ],
        twos 30 @ [ 1 ] );
      ( [ 393; 165; 189; 141; 261; 249; 213; 369; 273; 49; 321; 357; 237; 177; 81;
          285; 201; 105; 333; 129; 93; 57; 345; 297; 381; 117; 153; 309; 69; 225;
          414; 415 ],
        twos 30 @ [ 1; 1 ] );
    ]

let test_inorder_gesummv_pins () =
  List.iter
    (fun (factor, sizes, evaluations) ->
      let c = gesummv_x factor in
      let r =
        Crush.Inorder.share c.Minic.Codegen.graph
          ~critical_loops:c.Minic.Codegen.critical_loops
          ~conditional_bbs:c.Minic.Codegen.conditional_bbs
      in
      check Alcotest.(list int)
        (Fmt.str "x%d group sizes" factor)
        sizes
        (List.map (fun (g : Crush.Share.shared_group) -> List.length g.members) r.groups);
      checki (Fmt.str "x%d singles" factor) 0 r.singles;
      checki (Fmt.str "x%d evaluations" factor) evaluations r.evaluations)
    [ (3, [ 7; 8 ], 13); (5, [ 11; 12 ], 21) ]

(* opt_time_s is wall-clock time: a second domain burning CPU during the
   pass must not count, so it never exceeds the wall time around the
   call (process CPU time would read about twice that on two cores). *)
let test_opt_time_is_wall_clock () =
  let started = Atomic.make false and stop = Atomic.make false in
  let busy =
    Domain.spawn (fun () ->
        Atomic.set started true;
        while not (Atomic.get stop) do
          ignore (Sys.opaque_identity (ref 0))
        done)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let wall f =
    let t0 = Monotonic_clock.now () in
    let opt_time_s = f () in
    (opt_time_s, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)
  in
  let runs =
    [
      ( "crush",
        wall (fun () ->
            let c = gesummv_x 25 in
            let r =
              Crush.Share.crush c.Minic.Codegen.graph
                ~critical_loops:c.Minic.Codegen.critical_loops
            in
            r.opt_time_s) );
      ( "inorder",
        wall (fun () ->
            let c = gesummv_x 5 in
            let r =
              Crush.Inorder.share c.Minic.Codegen.graph
                ~critical_loops:c.Minic.Codegen.critical_loops
                ~conditional_bbs:c.Minic.Codegen.conditional_bbs
            in
            r.opt_time_s) );
    ]
  in
  Atomic.set stop true;
  Domain.join busy;
  List.iter
    (fun (name, (opt_time_s, wall_s)) ->
      checkb
        (Fmt.str "%s: opt_time_s %.4f <= wall %.4f" name opt_time_s wall_s)
        (opt_time_s > 0.0 && opt_time_s <= wall_s))
    runs

(* ------------------------------------------------------------------ *)
(* Paper examples (Figures 1, 2, 5) *)

let open_pe = ()

let test_fig1_unshared_correct () =
  let b = Crush.Paper_examples.fig1 () in
  let _, _, ok = Crush.Paper_examples.run_and_check b in
  checkb "figure 1a computes a[i] = i*i*C2 + i*C1" ok

let test_fig1b_naive_deadlocks () =
  let b = Crush.Paper_examples.fig1 () in
  let g =
    Crush.Paper_examples.share_pair b
      ~ops:[ b.Crush.Paper_examples.m2; b.Crush.Paper_examples.m3 ]
      `Naive
  in
  ignore (run_deadlock g)

let test_fig1c_credits_complete_and_correct () =
  let b = Crush.Paper_examples.fig1 () in
  let g =
    Crush.Paper_examples.share_pair b
      ~ops:[ b.Crush.Paper_examples.m2; b.Crush.Paper_examples.m3 ]
      `Credits
  in
  let memory = Sim.Memory.of_graph g in
  ignore (run_ok ~memory g);
  let got = Sim.Memory.get_floats memory "a" in
  let want = Crush.Paper_examples.fig1_expected b.Crush.Paper_examples.iterations in
  Array.iteri
    (fun i v -> checkb "memory verified" (v = float_of_int want.(i)))
    got

let test_fig1d_rotation_deadlocks () =
  let b = Crush.Paper_examples.fig1 () in
  let g =
    Crush.Paper_examples.share_pair b
      ~ops:[ b.Crush.Paper_examples.m3; b.Crush.Paper_examples.m1 ]
      (`Rotation [ 0; 1 ])
  in
  ignore (run_deadlock g)

let test_fig1e_priority_completes () =
  let b = Crush.Paper_examples.fig1 () in
  let g =
    Crush.Paper_examples.share_pair b
      ~ops:[ b.Crush.Paper_examples.m3; b.Crush.Paper_examples.m1 ]
      (`Priority [ 0; 1 ])
  in
  ignore (run_ok g)

let test_fig2_total_order_doubles_ii () =
  let b = Crush.Paper_examples.fig1 () in
  let rot =
    Crush.Paper_examples.share_pair b
      ~ops:[ b.Crush.Paper_examples.m1; b.Crush.Paper_examples.m3 ]
      (`Rotation [ 0; 1 ])
  in
  let rot_cycles = cycles (run_ok rot) in
  let b2 = Crush.Paper_examples.fig1 () in
  let prio =
    Crush.Paper_examples.share_pair b2
      ~ops:[ b2.Crush.Paper_examples.m1; b2.Crush.Paper_examples.m3 ]
      (`Priority [ 0; 1 ])
  in
  let prio_cycles = cycles (run_ok prio) in
  (* Paper Figure 2: total order gives II 4, out-of-order sustains II 2. *)
  checkb
    (Fmt.str "rotation about twice as slow (%d vs %d)" rot_cycles prio_cycles)
    (float_of_int rot_cycles > 1.7 *. float_of_int prio_cycles)

let test_fig5_sharing_penalizes () =
  let b = Crush.Paper_examples.fig5 () in
  let base = cycles (run_ok b.Crush.Paper_examples.graph) in
  let b2 = Crush.Paper_examples.fig5 () in
  let g =
    Crush.Paper_examples.share_pair b2
      ~ops:[ b2.Crush.Paper_examples.m1; b2.Crush.Paper_examples.m2 ]
      `Credits
  in
  let shared = cycles (run_ok g) in
  checkb "same-SCC sharing loses cycles" (shared > base)

let suite =
  ignore open_pe;
  [
    ("cost: cwp monotone", `Quick, test_cwp_monotone);
    ("cost: singleton free", `Quick, test_cwp_singleton_free);
    ("cost: fp pays, int does not", `Quick, test_merge_profitable_fp_not_int);
    ("cost: Eq2 total", `Quick, test_eq2_total);
    ("cost: component labels", `Quick, test_wrapper_components_labels);
    ("cost: platform crossovers", `Quick, test_platform_crossovers);
    ("wrapper: stream order", `Quick, test_wrapper_preserves_stream_order);
    ("context: fp candidates", `Quick, test_candidates_are_fp);
    ("context: Eq3 credits", `Quick, test_credits_formula);
    ("groups: R1", `Quick, test_r1_type_rule);
    ("groups: R2", `Quick, test_r2_capacity_rule);
    ("groups: R3 same SCC", `Quick, test_r3_same_scc_refused);
    ("groups: R3 feed-forward", `Quick, test_r3_feedforward_allowed);
    ("groups: greedy on atax", `Quick, test_groups_greedy_merges_atax);
    ("priority: producer first", `Quick, test_priority_producer_first);
    ("priority: permutation", `Quick, test_priority_is_permutation);
    ("wrapper: structure", `Quick, test_wrapper_structure);
    ("wrapper: bad specs", `Quick, test_wrapper_rejects_bad_specs);
    ("wrapper: Eq1 default", `Quick, test_wrapper_eq1_by_default);
    ("crush: shares regular kernels", `Slow, test_crush_shares_everything_regular);
    ("crush: preserves function", `Slow, test_crush_preserves_function);
    ("crush: near-naive performance", `Slow, test_crush_performance_near_naive);
    ("crush: report consistent", `Quick, test_crush_report_consistent);
    ("crush: fast-token", `Quick, test_crush_on_fast_token);
    ("inorder: gsum unshared", `Quick, test_inorder_gsum_shares_almost_nothing);
    ("inorder: atax shared", `Quick, test_inorder_regular_kernels_share);
    ("inorder: correct", `Slow, test_inorder_correct);
    ("inorder: needs BBs", `Quick, test_inorder_needs_bbs);
    ("inorder: pays evaluations", `Quick, test_inorder_pays_evaluations);
    ("crush: gesummv x5/x15/x25 pins", `Quick, test_crush_gesummv_pins);
    ("crush: Table 1 x75 pin", `Slow, test_crush_table1_pin);
    ("inorder: gesummv x3/x5 pins", `Quick, test_inorder_gesummv_pins);
    ("opt time: wall clock under a busy domain", `Quick, test_opt_time_is_wall_clock);
    ("paper: fig1a correct", `Quick, test_fig1_unshared_correct);
    ("paper: fig1b naive deadlock", `Quick, test_fig1b_naive_deadlocks);
    ("paper: fig1c credits", `Quick, test_fig1c_credits_complete_and_correct);
    ("paper: fig1d rotation deadlock", `Quick, test_fig1d_rotation_deadlocks);
    ("paper: fig1e priority", `Quick, test_fig1e_priority_completes);
    ("paper: fig2 out-of-order II", `Quick, test_fig2_total_order_doubles_ii);
    ("paper: fig5 SCC penalty", `Quick, test_fig5_sharing_penalizes);
    ("crush: priority orders and credits pinned", `Quick, test_crush_priority_pins);
  ]
