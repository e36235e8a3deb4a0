(** Observability tests: bounded event ring, golden VCD / Chrome traces
    on a tiny fixed circuit, metrics JSONL round-trip, measured-II pins
    for the paper examples and atax, the tracing-off bit-identity pin,
    and the CLI exit-code table. *)

open Helpers
open Dataflow
open Dataflow.Types

(* The tiny fixed circuit behind the golden traces: 2 + 3 through a
   one-stage adder.  Any change to its shape invalidates the goldens in
   test/goldens/ (regenerate them from the new output, then review the
   diff). *)
let tiny () =
  let b = Builder.create () in
  let ctrl = Builder.entry b VUnit in
  let c1 = Builder.const b ~ctrl ~label:"two" (VInt 2) in
  let c2 = Builder.const b ~ctrl ~label:"three" (VInt 3) in
  let s = Builder.operator b Iadd ~latency:1 ~label:"add" [ c1; c2 ] in
  ignore (Builder.exit_ b s);
  Builder.finalize b

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Tests run with cwd = test/ under `dune runtest` but cwd = repo root
   under `dune exec test/run_tests.exe`; accept either. *)
let locate path =
  if Sys.file_exists path then path
  else Filename.concat "test" path

let read_file path =
  let ic = open_in_bin (locate path) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* {2 Event ring} *)

let fire cycle = Sim.Engine.E_fire { cycle; uid = 0 }

let test_ring_bounded () =
  let r = Obs.Events.ring ~capacity:4 in
  for c = 0 to 9 do
    Obs.Events.push r (fire c)
  done;
  checki "length capped" 4 (Obs.Events.length r);
  checki "dropped counted" 6 (Obs.Events.dropped r);
  let cycles = List.map Obs.Events.cycle_of (Obs.Events.to_list r) in
  Alcotest.(check (list int)) "newest kept, oldest first" [ 6; 7; 8; 9 ] cycles

let test_ring_rejects_bad_capacity () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Events.ring: capacity must be positive")
    (fun () -> ignore (Obs.Events.ring ~capacity:0))

let test_tee () =
  let a = ref 0 and b = ref 0 in
  let s = Obs.Events.tee [ (fun _ -> incr a); (fun _ -> incr b) ] in
  s (fire 0);
  s (fire 1);
  checki "first sink" 2 !a;
  checki "second sink" 2 !b

(* {2 Golden traces} *)

let test_golden_vcd () =
  let g = tiny () in
  let vcd = Obs.Vcd.create g in
  let out = Sim.Engine.run ~monitor:(Obs.Vcd.monitor vcd) g in
  (match out.Sim.Engine.stats.Sim.Engine.status with
  | Sim.Engine.Completed _ -> ()
  | st -> Alcotest.failf "tiny did not complete: %a" Sim.Engine.pp_status st);
  checki "nothing dropped" 0 (Obs.Vcd.dropped vcd);
  Alcotest.(check string)
    "golden VCD" (read_file "goldens/tiny.vcd") (Obs.Vcd.to_string vcd)

let test_golden_chrome () =
  let g = tiny () in
  let tr = Obs.Chrome_trace.create g in
  ignore (Sim.Engine.run ~sink:(Obs.Chrome_trace.sink tr) g);
  checki "nothing dropped" 0 (Obs.Chrome_trace.dropped tr);
  Alcotest.(check string)
    "golden Chrome trace"
    (read_file "goldens/tiny.trace.json")
    (Obs.Chrome_trace.to_string tr)

let test_vcd_bounded () =
  let g = tiny () in
  let vcd = Obs.Vcd.create ~max_changes:5 g in
  ignore (Sim.Engine.run ~monitor:(Obs.Vcd.monitor vcd) g);
  checkb "changes were dropped" (Obs.Vcd.dropped vcd > 0);
  let s = Obs.Vcd.to_string vcd in
  checkb "truncation is declared" (contains s "$comment")

(* {2 Metrics JSONL round-trip} *)

let gen_report : Obs.Metrics.report QCheck2.Gen.t =
  let open QCheck2.Gen in
  let nat = int_range 0 1_000_000 in
  (* floats from a dyadic grid round-trip exactly through the decimal
     printer, so polymorphic equality is a sound oracle *)
  let flt = map (fun i -> float_of_int i /. 64.) nat in
  let lbl = string_size ~gen:printable (int_range 0 12) in
  let unit_row =
    map (fun ((uid, ulabel, ukind), (fires, utilization)) ->
        { Obs.Metrics.uid; ulabel; ukind; fires; utilization })
      (pair (triple nat lbl lbl) (pair nat flt))
  in
  let chan_row =
    map (fun ((cid, src, dst), (transfers, stalls, by_reason)) ->
        { Obs.Metrics.cid; src; dst; transfers; stalls; by_reason })
      (pair (triple nat lbl lbl)
         (triple nat nat (small_list (pair lbl nat))))
  in
  let credit_row =
    map (fun ((kuid, klabel), (grants, returns, exhausted)) ->
        { Obs.Metrics.kuid; klabel; grants; returns; exhausted })
      (pair (pair nat lbl) (triple nat nat nat))
  in
  let arb_row =
    map (fun ((auid, alabel), grant_hist) ->
        { Obs.Metrics.auid; alabel; grant_hist })
      (pair (pair nat lbl) (small_list nat))
  in
  let buffer_row =
    map (fun ((buid, blabel, slots), (avg_occ, (p50_occ, p95_occ, max_occ))) ->
        { Obs.Metrics.buid; blabel; slots; avg_occ; p50_occ; p95_occ; max_occ })
      (pair (triple nat lbl nat) (pair flt (triple nat nat nat)))
  in
  let loop_row =
    map (fun ((loop_id, header, iterations), (measured_ii, assumed_ii)) ->
        { Obs.Metrics.loop_id; header; iterations; measured_ii; assumed_ii })
      (pair (triple nat lbl nat) (pair flt (opt flt)))
  in
  map (fun ((kernel, total_cycles, units), (channels, credits, arbiters), (buffers, loops)) ->
      { Obs.Metrics.kernel; total_cycles; units; channels; credits;
        arbiters; buffers; loops })
    (triple
       (triple lbl nat (small_list unit_row))
       (triple (small_list chan_row) (small_list credit_row) (small_list arb_row))
       (pair (small_list buffer_row) (small_list loop_row)))

let prop_report_roundtrip report =
  let line = Exec.Jsonl.to_string (Obs.Metrics.report_to_json report) in
  (* one JSONL record: no embedded newlines *)
  (not (String.contains line '\n'))
  &&
  match Exec.Jsonl.parse line with
  | Error e -> QCheck2.Test.fail_reportf "reparse failed: %s" e
  | Ok json -> (
      match Obs.Metrics.report_of_json json with
      | Error e -> QCheck2.Test.fail_reportf "of_json failed: %s" e
      | Ok report' -> report' = report)

(* {2 Measured II pins: unshared baselines} *)

let check_loop ~iters ~measured ~assumed (l : Obs.Metrics.loop_row) =
  checki (l.Obs.Metrics.header ^ " iterations") iters l.Obs.Metrics.iterations;
  Alcotest.(check (float 1e-6))
    (l.Obs.Metrics.header ^ " measured II") measured l.Obs.Metrics.measured_ii;
  (* the CFC bound is a throughput ratio, not an integer: fig1's is
     2.00003, so pin to 1e-3 *)
  Alcotest.(check (option (float 1e-3)))
    (l.Obs.Metrics.header ^ " assumed II") assumed l.Obs.Metrics.assumed_ii

(* Simulate [g] with the metrics pass attached; (cycles, report). *)
let profile ~kernel g =
  let m = Obs.Metrics.create g in
  let stats = (Sim.Engine.run ~sink:(Obs.Metrics.sink m) g).Sim.Engine.stats in
  let cycles = stats.Sim.Engine.cycles in
  (cycles, Obs.Metrics.finish m ~kernel ~total_cycles:cycles)

let test_ii_fig1 () =
  let built = Crush.Paper_examples.fig1 () in
  let cycles, report =
    profile ~kernel:"fig1" built.Crush.Paper_examples.graph
  in
  checki "fig1 cycles" 155 cycles;
  match report.Obs.Metrics.loops with
  | [ l ] -> check_loop ~iters:65 ~measured:2.328125 ~assumed:(Some 2.0) l
  | ls -> Alcotest.failf "fig1: expected 1 loop row, got %d" (List.length ls)

let test_ii_fig2 () =
  let built = Crush.Paper_examples.fig1 () in
  let g =
    Crush.Paper_examples.share_pair built
      ~ops:[ built.Crush.Paper_examples.m1; built.Crush.Paper_examples.m3 ]
      (`Priority [ 0; 1 ])
  in
  let cycles, report = profile ~kernel:"fig2" g in
  checki "fig2 cycles" 136 cycles;
  match report.Obs.Metrics.loops with
  | [ l ] ->
      (* naive sharing breaks the CFC bound (assumed II unbounded) but
         the header still sustains ~2 cycles per iteration *)
      check_loop ~iters:65 ~measured:2.03125 ~assumed:None l
  | ls -> Alcotest.failf "fig2: expected 1 loop row, got %d" (List.length ls)

let test_ii_atax () =
  let bench = Kernels.Registry.find "atax" in
  let g = (compile bench.Kernels.Registry.source).Minic.Codegen.graph in
  let metrics = Obs.Metrics.create g in
  let verdict =
    Kernels.Harness.run_circuit ~sink:(Obs.Metrics.sink metrics) bench g
  in
  checkb "atax functionally correct" verdict.Kernels.Harness.functionally_correct;
  checki "atax cycles" 4864 verdict.Kernels.Harness.cycles;
  let report =
    Obs.Metrics.finish metrics ~kernel:"atax"
      ~total_cycles:verdict.Kernels.Harness.cycles
  in
  let find_loop id =
    List.find (fun l -> l.Obs.Metrics.loop_id = id)
      report.Obs.Metrics.loops
  in
  (* outer i-loop: II dominated by the inner loop's trip count *)
  check_loop ~iters:17 ~measured:150.875 ~assumed:(Some 2.0) (find_loop 0);
  (* inner j-loop: measured 9.03 against the CFC bound of 9 — the
     slower of its header muxes (the other reads 8.93) *)
  Alcotest.(check (float 1e-3)) "atax inner measured II" 9.0295
    (find_loop 1).Obs.Metrics.measured_ii;
  check_loop ~iters:272 ~measured:(find_loop 1).Obs.Metrics.measured_ii
    ~assumed:(Some 9.0) (find_loop 1)

(* {2 Tracing off = bit-identical} *)

let test_sink_transparent_fig1 () =
  let g = (Crush.Paper_examples.fig1 ()).Crush.Paper_examples.graph in
  let bare = Sim.Engine.run g in
  let seen = ref 0 in
  let traced = Sim.Engine.run ~sink:(fun _ -> incr seen) g in
  checkb "sink saw events" (!seen > 0);
  checkb "stats bit-identical under tracing"
    (bare.Sim.Engine.stats = traced.Sim.Engine.stats)

let test_sink_transparent_atax () =
  let bench = Kernels.Registry.find "atax" in
  let run sink =
    Kernels.Harness.run_circuit ?sink bench
      (compile bench.Kernels.Registry.source).Minic.Codegen.graph
  in
  let bare = run None in
  let traced = run (Some (fun _ -> ())) in
  checkb "verdicts bit-identical under tracing" (bare = traced)

(* {2 Exit-code table} *)

let test_outcome_exit_codes () =
  let open Exec.Outcome in
  let cases =
    [
      ("ok", 0, exit_code (Ok ()));
      ( "frontend", 10,
        exit_code
          (Frontend_error { phase = "parse"; loc = None; token = None; message = "" }) );
      ("validation", 11, exit_code (Validation_error { message = "" }));
      ("deadlock", 12, exit_code (Sim_deadlock { cycle = 0; core = [] }));
      ( "out-of-fuel", 13,
        exit_code (Out_of_fuel { fuel = 0; still_firing = []; exit_tokens = 0 }) );
      ("timeout", 14, exit_code (Job_timeout { cycles = 0 }));
      ("crash", 15, exit_code (Worker_crash { exn = ""; backtrace = "" }));
      ( "sanitizer", 16,
        exit_code
          (Sanitizer_violation
             { cycle = 0; unit_label = ""; invariant = ""; detail = ""; repro = None }) );
    ]
  in
  List.iter (fun (name, want, got) -> checki name want got) cases

let cli () =
  List.find Sys.file_exists
    [ "../bin/crush_cli.exe"; "_build/default/bin/crush_cli.exe" ]

let slurp path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  text

(** Run the CLI; returns (exit code, stdout, stderr). *)
let run_cli_out args =
  let out = Filename.temp_file "crush_cli" ".out" in
  let err = Filename.temp_file "crush_cli" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s >%s 2>%s" (cli ()) args out err)
  in
  let stdout = slurp out in
  (code, stdout, slurp err)

let run_cli args =
  let code, _, stderr = run_cli_out args in
  (code, stderr)

let test_cli_exit_codes () =
  let code args = fst (run_cli args) in
  checki "--help exits 0" 0 (code "--help");
  checki "valid subcommand --help exits 0" 0 (code "profile --help");
  checki "unknown command exits 2" 2 (code "definitely-not-a-command");
  checki "unknown flag exits 2" 2 (code "stats --no-such-flag");
  checki "missing positional exits 2" 2 (code "profile");
  checki "unknown kernel exits 2" 2 (code "profile no-such-kernel");
  checki "unknown --kernel exits 2" 2 (code "chaos --kernel no-such-kernel");
  checki "uncaught exception exits 125" 125
    (code "compile atax --dot /nonexistent-dir/atax.dot")

let test_cli_usage_line () =
  List.iter
    (fun args ->
      let _, stderr = run_cli args in
      checkb ("usage line on stderr: " ^ args)
        (contains stderr "usage: crush COMMAND"))
    [ "definitely-not-a-command"; "run no-such-kernel" ]

(* [crush stats] and [crush profile] print one measurement: for every
   loop with a measured II (two or more header fires), both print the
   same value. *)
let test_cli_stats_matches_profile () =
  let loops args parse =
    let code, out, _ = run_cli_out args in
    checki (args ^ " exits 0") 0 code;
    List.filter_map parse (String.split_on_char '\n' out)
  in
  List.iter
    (fun kernel ->
      let stats_ii =
        loops
          (Fmt.str "stats %s --technique crush" kernel)
          (fun line ->
            Scanf.sscanf_opt line "loop %d: achieved II %s" (fun l ii ->
                (l, ii)))
      in
      let profile_ii =
        loops
          (Fmt.str "profile %s --technique crush" kernel)
          (fun line ->
            Scanf.sscanf_opt line " loop %d header %s iters %d measured II %s"
              (fun l _ iters ii -> if iters >= 2 then Some (l, ii) else None)
            |> Option.join)
      in
      checkb (kernel ^ ": loops measured") (stats_ii <> []);
      Alcotest.(check (list (pair int string)))
        (kernel ^ ": stats and profile measured II") profile_ii stats_ii)
    [ "gsum"; "atax" ]

(* [crush list] prints one line per kernel, so the first field of each
   line is exactly the registry's names, in order. *)
let test_cli_list_one_line_per_kernel () =
  let code, out, _ = run_cli_out "list" in
  checki "list exits 0" 0 code;
  let first_fields =
    String.split_on_char '\n' out
    |> List.filter (fun line -> String.trim line <> "")
    |> List.map (fun line ->
           List.hd (String.split_on_char ' ' (String.trim line)))
  in
  Alcotest.(check (list string))
    "one line per kernel, the name first"
    (List.map (fun (b : Kernels.Registry.bench) -> b.Kernels.Registry.name)
       Kernels.Registry.all)
    first_fields;
  checki "11 kernels" 11 (List.length first_fields)

let suite =
  [
    Alcotest.test_case "ring: bounded, newest kept" `Quick test_ring_bounded;
    Alcotest.test_case "ring: bad capacity refused" `Quick test_ring_rejects_bad_capacity;
    Alcotest.test_case "tee fans out" `Quick test_tee;
    Alcotest.test_case "golden VCD (tiny)" `Quick test_golden_vcd;
    Alcotest.test_case "golden Chrome trace (tiny)" `Quick test_golden_chrome;
    Alcotest.test_case "VCD bounded recording" `Quick test_vcd_bounded;
    qtest ~count:200 "metrics report JSONL round-trip" gen_report prop_report_roundtrip;
    Alcotest.test_case "measured II: fig1 unshared" `Quick test_ii_fig1;
    Alcotest.test_case "measured II: fig2 (priority-shared)" `Quick test_ii_fig2;
    Alcotest.test_case "measured II: atax unshared" `Slow test_ii_atax;
    Alcotest.test_case "sink off = bit-identical (fig1)" `Quick test_sink_transparent_fig1;
    Alcotest.test_case "sink off = bit-identical (atax)" `Slow test_sink_transparent_atax;
    Alcotest.test_case "Outcome exit-code table 10..16" `Quick test_outcome_exit_codes;
    Alcotest.test_case "CLI exit codes 0/2/125" `Slow test_cli_exit_codes;
    Alcotest.test_case "CLI usage line on stderr" `Slow test_cli_usage_line;
    Alcotest.test_case "CLI stats = profile measured II" `Slow
      test_cli_stats_matches_profile;
    Alcotest.test_case "CLI list: one line per kernel" `Quick
      test_cli_list_one_line_per_kernel;
  ]
