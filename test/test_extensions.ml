(** Tests of the extension features: AST printing round-trips, the mini-C
    interpreter as a differential oracle, dynamic simulation statistics,
    and the profile-guided output-buffer shrinking pass (paper §6.4). *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Printer round-trips *)

let roundtrip src =
  let k = Minic.Parser.parse_kernel src in
  let printed = Minic.Print.to_string k in
  let k' = Minic.Parser.parse_kernel printed in
  (* Print both and compare: literal formatting is already normalized. *)
  check Alcotest.string "round trip" (Minic.Print.to_string k')
    (Minic.Print.to_string k)

let test_print_roundtrip_kernels () =
  List.iter
    (fun (b : Kernels.Registry.bench) -> roundtrip b.Kernels.Registry.source)
    Kernels.Registry.all

let test_print_roundtrip_constructs () =
  roundtrip
    {|void f(float a[4][4], int b[2]) {
        int x = -3;
        float y = 0.5;
        if (!(x < 0) && y >= 0.25 || x == 2) { y = y * 2.0; } else { y += 1.0; }
        for (int i = 1; i <= 3; i += 2) { a[i][0] = y - 1.0; }
        b[0] = x;
      }|}

let test_print_unrolled () =
  (* The printed form of an unrolled kernel still parses and compiles. *)
  let _bench, ast = Kernels.Registry.gesummv_unrolled ~n:6 ~factor:3 in
  let printed = Minic.Print.to_string ast in
  let c = compile printed in
  checkb "compiles" (Dataflow.Graph.live_unit_count c.Minic.Codegen.graph > 0)

(* ------------------------------------------------------------------ *)
(* Interpreter *)

let interp_arrays (bench : Kernels.Registry.bench) =
  let inputs = Kernels.Registry.fresh_inputs bench in
  let mine = Kernels.Registry.copy_arrays inputs in
  let theirs = Kernels.Registry.copy_arrays inputs in
  Minic.Interp.run (Minic.Parser.parse_kernel bench.Kernels.Registry.source) mine;
  bench.Kernels.Registry.reference theirs;
  (mine, theirs)

let close a b =
  Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let test_interp_matches_references () =
  List.iter
    (fun (bench : Kernels.Registry.bench) ->
      let mine, theirs = interp_arrays bench in
      List.iter
        (fun (name, _) ->
          let a = Kernels.Reference.get mine name in
          let b = Kernels.Reference.get theirs name in
          Array.iteri
            (fun i x ->
              if not (close x b.(i)) then
                Alcotest.failf "%s: %s[%d] interp %g vs reference %g"
                  bench.Kernels.Registry.name name i x b.(i))
            a)
        bench.Kernels.Registry.arrays)
    Kernels.Registry.all

let test_interp_errors () =
  let bad src arrays =
    let t = Hashtbl.create 4 in
    List.iter (fun (n, sz) -> Hashtbl.replace t n (Array.make sz 0.0)) arrays;
    try
      Minic.Interp.run (Minic.Parser.parse_kernel src) t;
      Alcotest.fail "interpreter accepted bad program"
    with Minic.Interp.Error _ -> ()
  in
  bad "void f(float a[2]) { a[5] = 1.0; }" [ ("a", 2) ];
  bad "void f(float a[2]) { int x = 1 / 0; a[0] = x; }" [ ("a", 2) ];
  bad "void f(float x) { }" []

(* ------------------------------------------------------------------ *)
(* Simulation statistics: the Obs metrics pass on a verified run *)

let measure (bench : Kernels.Registry.bench) g =
  let m = Obs.Metrics.create g in
  let out, _ =
    Kernels.Harness.run_circuit_full ~sink:(Obs.Metrics.sink m) bench g
  in
  ( out,
    Obs.Metrics.finish m ~kernel:bench.Kernels.Registry.name
      ~total_cycles:out.Sim.Engine.stats.Sim.Engine.cycles )

let unit_row (r : Obs.Metrics.report) uid =
  List.find (fun (u : Obs.Metrics.unit_row) -> u.uid = uid) r.units

let loop_ii (r : Obs.Metrics.report) loop =
  match
    List.find_opt (fun (l : Obs.Metrics.loop_row) -> l.loop_id = loop) r.loops
  with
  | Some l when l.iterations >= 2 -> Some l.measured_ii
  | _ -> None

let test_stats_counts_and_ii () =
  let bench = Kernels.Registry.find "gemm" in
  let c = compile bench.Kernels.Registry.source in
  let g = c.Minic.Codegen.graph in
  let out, report = measure bench g in
  checkb "completed" (Sim.Engine.is_completed out);
  (* The inner-loop fadd fires once per innermost iteration: N^3 times. *)
  let n = Kernels.Sources.gemm_n in
  let fadds =
    Dataflow.Graph.fold_units g
      (fun acc u ->
        match u.Dataflow.Graph.kind with
        | Dataflow.Types.Operator { op = Dataflow.Types.Fadd; _ } ->
            u.Dataflow.Graph.uid :: acc
        | _ -> acc)
      []
  in
  (match fadds with
  | [ fadd ] ->
      checki "N^3 accumulations" (n * n * n) (unit_row report fadd).fires
  | _ -> Alcotest.fail "expected one fadd");
  (* Measured inner-loop II agrees with the analytic bound (~9). *)
  let inner = List.hd c.Minic.Codegen.critical_loops in
  (match loop_ii report inner with
  | Some ii -> checkb (Fmt.str "measured II ~ 9 (%.2f)" ii) (ii > 8.0 && ii < 11.0)
  | None -> Alcotest.fail "no measured II");
  (* Utilization of the single fadd is below 1 (it is shareable). *)
  let u = (unit_row report (List.hd fadds)).utilization in
  checkb "fadd underutilized" (u > 0.0 && u < 1.0)

let test_stats_measured_vs_analytic () =
  (* Cross-check the II analysis against the simulator on atax. *)
  let bench = Kernels.Registry.find "atax" in
  let c = compile bench.Kernels.Registry.source in
  let g = c.Minic.Codegen.graph in
  let _, report = measure bench g in
  List.iter
    (fun loop ->
      let analytic =
        Option.get (Analysis.Cfc.ii_value (Analysis.Cfc.of_loop g loop))
      in
      match loop_ii report loop with
      | Some measured ->
          checkb
            (Fmt.str "loop %d: measured %.2f vs analytic %.2f" loop measured
               analytic)
            (Float.abs (measured -. analytic) <= 1.5)
      | None -> Alcotest.fail "no measured II")
    c.Minic.Codegen.critical_loops

(* ------------------------------------------------------------------ *)
(* Output-buffer shrinking *)

let profile_fn (bench : Kernels.Registry.bench) g () =
  let inputs = Kernels.Registry.fresh_inputs bench in
  let memory = Sim.Memory.of_graph g in
  Hashtbl.iter (fun n d -> Sim.Memory.set_floats memory n d) inputs;
  let out = Sim.Engine.run ~memory g in
  (out.Sim.Engine.sim, Sim.Engine.is_completed out)

let test_elide_shrinks_and_stays_correct () =
  let bench = Kernels.Registry.find "gsumif" in
  let c = compile bench.Kernels.Registry.source in
  let g = c.Minic.Codegen.graph in
  ignore (Crush.Share.crush g ~critical_loops:c.Minic.Codegen.critical_loops);
  let before = (Analysis.Area.total g).Analysis.Area.ffs in
  let resizes = Crush.Elide.optimize g ~profile:(profile_fn bench g) in
  checkb "some slots saved" (Crush.Elide.saved_slots resizes > 0);
  checkb "area shrank" ((Analysis.Area.total g).Analysis.Area.ffs < before);
  let v = Kernels.Harness.run_circuit bench g in
  checkb "still correct" v.Kernels.Harness.functionally_correct

let test_elide_restore () =
  let bench = Kernels.Registry.find "atax" in
  let c = compile bench.Kernels.Registry.source in
  let g = c.Minic.Codegen.graph in
  ignore (Crush.Share.crush g ~critical_loops:c.Minic.Codegen.critical_loops);
  let before = Analysis.Area.total g in
  let sim, ok = profile_fn bench g () in
  checkb "profiled" ok;
  let resizes = Crush.Elide.shrink_output_buffers g sim in
  Crush.Elide.restore g resizes;
  checkb "restore is exact" (Analysis.Area.total g = before)

let test_elide_noop_without_wrappers () =
  let bench = Kernels.Registry.find "atax" in
  let c = compile bench.Kernels.Registry.source in
  let g = c.Minic.Codegen.graph in
  let resizes = Crush.Elide.optimize g ~profile:(profile_fn bench g) in
  checki "nothing to shrink in an unshared circuit" 0 (List.length resizes)

(* ------------------------------------------------------------------ *)
(* Interpreter as differential oracle for the whole pipeline *)

let test_interp_vs_circuit_on_unrolled () =
  let bench, ast = Kernels.Registry.gesummv_unrolled ~n:10 ~factor:2 in
  let inputs = Kernels.Registry.fresh_inputs bench in
  (* Interpreter path. *)
  let imem = Kernels.Registry.copy_arrays inputs in
  Minic.Interp.run ast imem;
  (* Circuit path. *)
  let c = Minic.Codegen.compile ast in
  let memory = Sim.Memory.of_graph c.Minic.Codegen.graph in
  Hashtbl.iter (fun n d -> Sim.Memory.set_floats memory n d) inputs;
  let out = Sim.Engine.run ~memory c.Minic.Codegen.graph in
  checkb "completed" (Sim.Engine.is_completed out);
  Array.iteri
    (fun i v ->
      checkb "y agrees" (close v (Kernels.Reference.get imem "y").(i)))
    (Sim.Memory.get_floats memory "y")

let suite =
  [
    ("print: kernel round trips", `Quick, test_print_roundtrip_kernels);
    ("print: construct round trips", `Quick, test_print_roundtrip_constructs);
    ("print: unrolled compiles", `Quick, test_print_unrolled);
    ("interp: matches references", `Quick, test_interp_matches_references);
    ("interp: errors", `Quick, test_interp_errors);
    ("stats: counts and II", `Slow, test_stats_counts_and_ii);
    ("stats: measured vs analytic II", `Quick, test_stats_measured_vs_analytic);
    ("elide: shrinks correctly", `Quick, test_elide_shrinks_and_stays_correct);
    ("elide: restore", `Quick, test_elide_restore);
    ("elide: no wrappers", `Quick, test_elide_noop_without_wrappers);
    ("interp vs circuit (unrolled)", `Quick, test_interp_vs_circuit_on_unrolled);
  ]
