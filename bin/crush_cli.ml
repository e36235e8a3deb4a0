(** [crush] — command-line driver for the CRUSH resource-sharing flow.

    Subcommands mirror the toolflow of Section 6: compile a benchmark
    kernel to a dataflow circuit, analyze its performance-critical CFCs,
    apply a sharing technique, simulate and verify, or export Graphviz.

    Examples:
      crush list
      crush compile atax --dot atax.dot
      crush analyze gemm
      crush run gsumif --technique crush
      crush run symm --technique inorder --strategy bb
*)

open Cmdliner

let strategy_conv =
  let parse = function
    | "bb" | "bb-ordered" -> Ok Minic.Codegen.Bb_ordered
    | "fast" | "fast-token" -> Ok Minic.Codegen.Fast_token
    | s -> Error (`Msg (Fmt.str "unknown strategy %s (use bb | fast)" s))
  in
  let print ppf s = Fmt.string ppf (Minic.Codegen.string_of_strategy s) in
  Arg.conv (parse, print)

type technique = T_naive | T_crush | T_inorder

let technique_conv =
  let parse = function
    | "naive" | "none" -> Ok T_naive
    | "crush" -> Ok T_crush
    | "inorder" | "in-order" -> Ok T_inorder
    | s -> Error (`Msg (Fmt.str "unknown technique %s (naive | crush | inorder)" s))
  in
  let print ppf = function
    | T_naive -> Fmt.string ppf "naive"
    | T_crush -> Fmt.string ppf "crush"
    | T_inorder -> Fmt.string ppf "inorder"
  in
  Arg.conv (parse, print)

(** A name from a fixed list, checked while the command line is parsed:
    an unknown one is a usage error (exit 2), not an escaped exception. *)
let name_conv names =
  let parse s =
    if List.mem s names then Ok s
    else Error (`Msg (Fmt.str "unknown benchmark %s (see crush list)" s))
  in
  Arg.conv (parse, Fmt.string)

let bench_names =
  List.map (fun (b : Kernels.Registry.bench) -> b.Kernels.Registry.name)
    Kernels.Registry.all

let bench_arg =
  Arg.(
    required
    & pos 0 (some (name_conv bench_names)) None
    & info [] ~docv:"BENCH" ~doc:"Benchmark name (see $(b,crush list)).")

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Minic.Codegen.Bb_ordered
    & info [ "strategy" ] ~docv:"S" ~doc:"HLS strategy: bb or fast.")

let technique_arg =
  Arg.(
    value
    & opt technique_conv T_crush
    & info [ "technique" ] ~docv:"T" ~doc:"Sharing technique: naive, crush or inorder.")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Write the circuit as Graphviz to $(docv).")

let compile_bench name strategy =
  let b = Kernels.Registry.find name in
  (b, Minic.Codegen.compile_source ~strategy b.Kernels.Registry.source)

let apply_technique technique (c : Minic.Codegen.compiled) =
  match technique with
  | T_naive -> ()
  | T_crush ->
      let r =
        Crush.Share.crush c.Minic.Codegen.graph
          ~critical_loops:c.Minic.Codegen.critical_loops
      in
      Fmt.pr "%a@." Crush.Share.pp_report r
  | T_inorder ->
      let r =
        Crush.Inorder.share c.Minic.Codegen.graph
          ~critical_loops:c.Minic.Codegen.critical_loops
          ~conditional_bbs:c.Minic.Codegen.conditional_bbs
      in
      Fmt.pr "In-order: %d groups, %d evaluations, %.3fs@."
        (List.length r.Crush.Inorder.groups)
        r.Crush.Inorder.evaluations r.Crush.Inorder.opt_time_s

let list_cmd =
  let doc = "List the available benchmarks." in
  let run () =
    (* One line per kernel: plain strings, no Format box to wrap. *)
    List.iter
      (fun (b : Kernels.Registry.bench) ->
        print_endline
          (Printf.sprintf "%-10s arrays: %s" b.Kernels.Registry.name
             (String.concat " "
                (List.map
                   (fun (a, n) -> Printf.sprintf "%s[%d]" a n)
                   b.Kernels.Registry.arrays))))
      Kernels.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let compile_cmd =
  let doc = "Compile a benchmark to a dataflow circuit and print statistics." in
  let run name strategy dot =
    let _, c = compile_bench name strategy in
    let g = c.Minic.Codegen.graph in
    let area = Analysis.Area.total g in
    Fmt.pr "%s (%s): %d units, %d channels@." name
      (Minic.Codegen.string_of_strategy strategy)
      (Dataflow.Graph.live_unit_count g)
      (List.length (Dataflow.Graph.channels g));
    Fmt.pr "area: %a (%d slices), CP %.2f ns@." Analysis.Area.pp_cost area
      (Analysis.Area.slices area)
      (Analysis.Timing.critical_path g);
    (match dot with
    | Some path ->
        Dataflow.Dot.to_file g path;
        Fmt.pr "wrote %s@." path
    | None -> ())
  in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(const run $ bench_arg $ strategy_arg $ dot_arg)

let analyze_cmd =
  let doc = "Print the performance-critical CFCs, IIs and occupancies." in
  let run name strategy =
    let _, c = compile_bench name strategy in
    let g = c.Minic.Codegen.graph in
    let cfcs =
      Analysis.Cfc.critical g ~critical_loops:c.Minic.Codegen.critical_loops
    in
    List.iter
      (fun (cfc : Analysis.Cfc.t) ->
        Fmt.pr "loop %d: %a (memory-port bound %d), %d units@." cfc.loop_id
          Analysis.Cycle_ratio.pp cfc.ii cfc.mem_ii
          (List.length cfc.units);
        List.iter
          (fun uid ->
            match Dataflow.Graph.kind_of g uid with
            | Dataflow.Types.Operator { op = (Fadd | Fsub | Fmul | Fdiv) as op; _ }
              ->
                Fmt.pr "  %s (%s): occupancy %.2f@."
                  (Dataflow.Graph.label_of g uid)
                  (Dataflow.Types.string_of_opcode op)
                  (Analysis.Cfc.occupancy g cfc uid)
            | _ -> ())
          cfc.units)
      cfcs
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ bench_arg $ strategy_arg)

let run_cmd =
  let doc = "Compile, optionally share, simulate and verify a benchmark." in
  let run name strategy technique dot =
    let b, c = compile_bench name strategy in
    apply_technique technique c;
    let g = c.Minic.Codegen.graph in
    let v = Kernels.Harness.run_circuit b g in
    Fmt.pr "%s: %a@." name Kernels.Harness.pp_verdict v;
    List.iter
      (fun (a, i, want, got) ->
        Fmt.pr "  mismatch %s[%d]: expected %g, got %g@." a i want got)
      v.Kernels.Harness.mismatches;
    Fmt.pr "fp units: %a; area: %a; CP %.2f ns@."
      Fmt.(list ~sep:(any " ") (pair ~sep:(any ":") string int))
      (Analysis.Area.fp_unit_counts g)
      Analysis.Area.pp_cost (Analysis.Area.total g)
      (Analysis.Timing.critical_path g);
    (match dot with
    | Some path ->
        Dataflow.Dot.to_file g path;
        Fmt.pr "wrote %s@." path
    | None -> ());
    if not v.Kernels.Harness.functionally_correct then exit 1
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ bench_arg $ strategy_arg $ technique_arg $ dot_arg)

(* ------------------------------------------------------------------ *)
(* stats / trace / profile: cycle-level observability (lib/obs)        *)

(** Kernel name resolution shared by [stats], [trace] and [profile]:
    the paper's motivating circuits by figure name, or any registry
    benchmark (compiled with [strategy], shared with [technique]). *)
let paper_example = function
  | "fig1" -> Some (Crush.Paper_examples.fig1 ()).Crush.Paper_examples.graph
  | "fig2" ->
      (* Figure 2: the Figure 1 circuit with M1 and M3 out-of-order
         shared behind a priority arbiter. *)
      let b = Crush.Paper_examples.fig1 () in
      Some
        (Crush.Paper_examples.share_pair b
           ~ops:[ b.Crush.Paper_examples.m1; b.Crush.Paper_examples.m3 ]
           (`Priority [ 0; 1 ]))
  | "fig5" -> Some (Crush.Paper_examples.fig5 ()).Crush.Paper_examples.graph
  | _ -> None

(** Resolve [name] to (graph, runner); the runner simulates once with
    the given observability hooks attached and returns the stats. *)
let obs_subject name strategy technique =
  match paper_example name with
  | Some g ->
      ( g,
        fun ?monitor ?sink () ->
          (Sim.Engine.run ~max_cycles:2_000_000 ?monitor ?sink g)
            .Sim.Engine.stats )
  | None ->
      let b, c = compile_bench name strategy in
      apply_technique technique c;
      let g = c.Minic.Codegen.graph in
      ( g,
        fun ?monitor ?sink () ->
          let out, v = Kernels.Harness.run_circuit_full ?monitor ?sink b g in
          if not v.Kernels.Harness.functionally_correct then
            Fmt.epr "warning: %s produced wrong results@." name;
          out.Sim.Engine.stats )

(** Simulate [name] once with the metrics pass attached.  [stats] and
    [profile] both print from this one report, and {!Report.Measure}
    takes its II and utilization columns from the same pass. *)
let measure name strategy technique =
  let g, runner = obs_subject name strategy technique in
  let m = Obs.Metrics.create g in
  let stats = runner ~sink:(Obs.Metrics.sink m) () in
  let cycles = stats.Sim.Engine.cycles in
  (stats, Obs.Metrics.finish m ~kernel:name ~total_cycles:cycles)

let stats_cmd =
  let doc =
    "Simulate a benchmark and report dynamic statistics: achieved II per \
     loop and floating-point unit utilization."
  in
  let fp_kinds =
    [ "operator:fadd"; "operator:fsub"; "operator:fmul"; "operator:fdiv" ]
  in
  let run name strategy technique =
    let stats, report = measure name strategy technique in
    Fmt.pr "%s: %a@." name Sim.Engine.pp_status stats.Sim.Engine.status;
    List.iter
      (fun (l : Obs.Metrics.loop_row) ->
        if l.iterations >= 2 then
          Fmt.pr "loop %d: achieved II %.2f@." l.loop_id l.measured_ii)
      report.Obs.Metrics.loops;
    List.iter
      (fun (u : Obs.Metrics.unit_row) ->
        if List.mem u.ukind fp_kinds then
          Fmt.pr "%-14s fires %6d, utilization %4.0f%%@." u.ulabel u.fires
            (100.0 *. u.utilization))
      report.Obs.Metrics.units;
    (* Scripted sweeps must not silently pass over a wedged circuit. *)
    match stats.Sim.Engine.status with
    | Sim.Engine.Completed _ -> ()
    | _ -> exit 1
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run $ bench_arg $ strategy_arg $ technique_arg)

let obs_kernel_arg =
  Arg.(
    required
    & pos 0 (some (name_conv (bench_names @ [ "fig1"; "fig2"; "fig5" ]))) None
    & info [] ~docv:"KERNEL"
        ~doc:
          "Benchmark name (see $(b,crush list)) or paper example: fig1 \
           (unshared), fig2 (M1/M3 priority-shared), fig5.")

let max_events_arg =
  Arg.(
    value
    & opt int 1_000_000
    & info [ "max-events" ] ~docv:"N"
        ~doc:
          "Ring-buffer bound on recorded trace events/changes; past it \
           the trace is truncated (and says so) instead of growing \
           without bound.")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Fmt.pr "wrote %s@." path

let trace_cmd =
  let doc =
    "Simulate a kernel with the trace recorders attached and write a VCD \
     waveform (channel valid/ready, credit counts, buffer occupancy — \
     open in GTKWave) plus a Chrome trace_event JSON (per-unit fire \
     spans, arbiter grants, credit counters — open in Perfetto)."
  in
  let vcd_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE"
          ~doc:"VCD output path (default $(i,KERNEL).vcd).")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:"Chrome trace output path (default $(i,KERNEL).trace.json).")
  in
  let run name strategy technique vcd_path chrome_path max_events =
    let g, runner = obs_subject name strategy technique in
    let vcd = Obs.Vcd.create ~max_changes:max_events g in
    let chrome = Obs.Chrome_trace.create ~max_events g in
    let stats =
      runner ~monitor:(Obs.Vcd.monitor vcd)
        ~sink:(Obs.Chrome_trace.sink chrome) ()
    in
    Fmt.pr "%s: %a (%d cycles, %d transfers)@." name Sim.Engine.pp_status
      stats.Sim.Engine.status stats.Sim.Engine.cycles
      stats.Sim.Engine.transfers;
    if Obs.Vcd.dropped vcd > 0 then
      Fmt.pr "vcd: truncated, %d changes dropped (raise --max-events)@."
        (Obs.Vcd.dropped vcd);
    if Obs.Chrome_trace.dropped chrome > 0 then
      Fmt.pr "chrome: truncated, %d events dropped (raise --max-events)@."
        (Obs.Chrome_trace.dropped chrome);
    write_file
      (Option.value vcd_path ~default:(name ^ ".vcd"))
      (Obs.Vcd.to_string vcd);
    write_file
      (Option.value chrome_path ~default:(name ^ ".trace.json"))
      (Obs.Chrome_trace.to_string chrome)
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ obs_kernel_arg $ strategy_arg $ technique_arg $ vcd_arg
      $ chrome_arg $ max_events_arg)

let profile_cmd =
  let doc =
    "Simulate a kernel with the metrics pass attached and print the \
     profile report: measured vs assumed II per loop, the most contended \
     shared unit, credit-counter pressure, top stalled channels with \
     stall reasons, busiest units and buffer occupancy."
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also append the full metrics record as one JSONL line to \
                $(docv).")
  in
  let top_arg =
    Arg.(
      value
      & opt int 8
      & info [ "top" ] ~docv:"N"
          ~doc:"List at most $(docv) stalled channels / busiest units.")
  in
  let run name strategy technique json_path top =
    let stats, report = measure name strategy technique in
    Fmt.pr "status: %a@." Sim.Engine.pp_status stats.Sim.Engine.status;
    Fmt.pr "%a" (Obs.Profile.pp_report ~top) report;
    (match json_path with
    | Some path ->
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
        output_string oc
          (Exec.Jsonl.to_string (Obs.Metrics.report_to_json report));
        output_string oc "\n";
        close_out oc;
        Fmt.pr "appended metrics record to %s@." path
    | None -> ());
    (* Scripted sweeps must not silently pass over a wedged circuit
       (same contract as [crush stats]). *)
    match stats.Sim.Engine.status with
    | Sim.Engine.Completed _ -> ()
    | _ -> exit 1
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ obs_kernel_arg $ strategy_arg $ technique_arg $ json_arg
      $ top_arg)

(* ------------------------------------------------------------------ *)
(* chaos: adversarial robustness sweep + fault-injection self-test     *)

let trials_arg =
  Arg.(
    value
    & opt int 25
    & info [ "trials" ] ~docv:"N" ~doc:"Chaos seeds to try per kernel.")

let seed_arg =
  Arg.(
    value
    & opt int 42
    & info [ "seed" ] ~docv:"S" ~doc:"Base seed; trial $(i,i) uses S + 7919i.")

let kernel_arg =
  Arg.(
    value
    & opt (some (name_conv bench_names)) None
    & info [ "kernel" ] ~docv:"K"
        ~doc:"Restrict the sweep to one benchmark (default: all).")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write the fault-injection forensics (text report and DOT \
           overlay FILE.dot) to $(docv).  Under supervision (see \
           $(b,--keep-going)) this is instead a schema-versioned JSON \
           campaign report: per-class counts plus one record per task.")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Fan the (kernel, seed) trials across $(docv) domains.  Results \
           and output order are bit-identical to a serial sweep.")

let keep_going_arg =
  Arg.(
    value & flag
    & info [ "keep-going"; "k" ]
        ~doc:
          "Supervised sweep: classify every trial into the failure taxonomy \
           (ok / frontend / validation / deadlock / out-of-fuel / timeout / \
           crash) and keep draining the batch instead of aborting on the \
           first failure.  The exit code is that of the most severe class \
           observed (0, or 10..17).")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout-s" ] ~docv:"SECONDS"
        ~doc:
          "Per-trial wall-clock budget (implies supervision).  The watchdog \
           is polled cooperatively inside the simulator; an overdue trial \
           is classified $(i,timeout) while its siblings keep running.")

let retries_arg =
  Arg.(
    value
    & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry transient failures (timeout, crash) up to $(docv) extra \
           times (implies supervision).  Jobs that still fail land in the \
           quarantine manifest next to the journal.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "JSONL checkpoint journal (implies supervision).  Every finished \
           trial is appended and flushed immediately; a rerun with the same \
           journal skips everything already recorded.")

let inject_faults_arg =
  Arg.(
    value & flag
    & info [ "inject-faults" ]
        ~doc:
          "Supervised mode: add the three Eq. 1 fault-injection circuits to \
           the sweep as tasks that $(i,must) classify as deadlocks; a fault \
           that completes or misclassifies fails the run.")

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Run every simulation under the elastic-protocol sanitizers \
           ($(b,Sim.Sanitizer)); a violated invariant classifies the task \
           as $(b,sanitizer) instead of waiting for the wreckage to \
           quiesce into a deadlock.")

let auto_reduce_arg =
  Arg.(
    value & flag
    & info [ "auto-reduce" ]
        ~doc:
          "On a sanitizer violation, minimize the failing circuit with the \
           ddmin reducer and journal the path of the $(i,.repro.json) it \
           writes (implies $(b,--sanitize)).")

let repro_dir_arg =
  Arg.(
    value
    & opt string "repros"
    & info [ "repro-dir" ] ~docv:"DIR"
        ~doc:"Directory for minimized reproducers written by \
              $(b,--auto-reduce).")

let chaos_profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "After the sweep, re-run one chaos trial per kernel (the base \
           seed) with the metrics pass attached and print its profile \
           report — II, contention and stall attribution as seen under \
           perturbation.")

let chaos_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PREFIX"
        ~doc:
          "After the sweep, re-run one chaos trial per kernel (the base \
           seed) with the trace recorders attached and write \
           $(docv).$(i,KERNEL).vcd and $(docv).$(i,KERNEL).trace.json.")

(** The post-sweep observability pass of [chaos --profile/--trace]: one
    extra chaos-perturbed trial per kernel (base seed), compiled and
    shared exactly like the sweep's trials. *)
let chaos_observe ~seed ~profile ~trace benches =
  if profile || trace <> None then
    List.iter
      (fun (b : Kernels.Registry.bench) ->
        let name = b.Kernels.Registry.name in
        let c = Minic.Codegen.compile_source b.Kernels.Registry.source in
        ignore
          (Crush.Share.crush c.Minic.Codegen.graph
             ~critical_loops:c.Minic.Codegen.critical_loops);
        let g = c.Minic.Codegen.graph in
        let chaos = Sim.Chaos.default ~seed in
        let m = Obs.Metrics.create g in
        let vcd = Obs.Vcd.create g in
        let chrome = Obs.Chrome_trace.create g in
        let sinks =
          Obs.Metrics.sink m
          :: (if trace <> None then [ Obs.Chrome_trace.sink chrome ] else [])
        in
        let monitor =
          if trace <> None then Some (Obs.Vcd.monitor vcd) else None
        in
        let out, _v =
          Kernels.Harness.run_circuit_full ?monitor ~chaos
            ~sink:(Obs.Events.tee sinks) b g
        in
        if profile then
          Fmt.pr "%a"
            (Obs.Profile.pp_report ~top:5)
            (Obs.Metrics.finish m ~kernel:(name ^ "+chaos")
               ~total_cycles:out.Sim.Engine.stats.Sim.Engine.cycles);
        match trace with
        | Some prefix ->
            let write path contents =
              let oc = open_out path in
              output_string oc contents;
              close_out oc;
              Fmt.pr "wrote %s@." path
            in
            write (Fmt.str "%s.%s.vcd" prefix name) (Obs.Vcd.to_string vcd);
            write
              (Fmt.str "%s.%s.trace.json" prefix name)
              (Obs.Chrome_trace.to_string chrome)
        | None -> ())
      benches

let fault_slug = function
  | Crush.Faults.Overallocated_credits _ -> "overalloc"
  | Crush.Faults.Creditless_naive -> "creditless"
  | Crush.Faults.Reversed_rotation -> "rotation"

let fault_conv =
  let parse = function
    | "overalloc" -> Ok (Crush.Faults.Overallocated_credits 2)
    | "creditless" -> Ok Crush.Faults.Creditless_naive
    | "rotation" -> Ok Crush.Faults.Reversed_rotation
    | s ->
        Error
          (`Msg
            (Fmt.str "unknown fault %s (overalloc | creditless | rotation)" s))
  in
  let print ppf f = Fmt.string ppf (fault_slug f) in
  Arg.conv (parse, print)

let fault_circuit fault =
  Crush.Faults.inject (Crush.Paper_examples.fig1 ()) fault

(** Run [f] under a fresh sanitizer; on a violation, optionally minimize
    [g] and return the {!Exec.Outcome.Sanitizer_violation} carrying the
    repro path.  Reduction happens inside the task function — before the
    outcome is journalled — so a campaign's journal is bit-identical at
    any $(b,--jobs) level. *)
let sanitized ?deadline ~auto_reduce ~repro_dir ~name g f =
  match f (Sim.Sanitizer.monitor ()) with
  | result -> result
  | exception Sim.Sanitizer.Violation v ->
      let repro =
        if not auto_reduce then None
        else
          Option.map fst
            (Exec.Reduce.reduce_to_files ?deadline ~dir:repro_dir ~name
               ~fault:name ~invariant:v.Sim.Sanitizer.invariant g)
      in
      Exec.Outcome.Sanitizer_violation
        {
          cycle = v.Sim.Sanitizer.cycle;
          unit_label = v.Sim.Sanitizer.unit_label;
          invariant = v.Sim.Sanitizer.invariant;
          detail = v.Sim.Sanitizer.detail;
          repro;
        }

(** Sweep every CRUSH-shared kernel across chaos seeds: every trial must
    complete with outputs identical to the software reference.  The
    (kernel, trial) grid fans out over [jobs] domains; each task compiles
    and shares its own circuit, so tasks are fully independent, and
    results come back in submission order — the report reads exactly
    like a serial sweep.  Returns the number of failed trials. *)
let chaos_sweep ~jobs ~trials ~seed benches =
  let tasks =
    List.concat_map
      (fun (b : Kernels.Registry.bench) ->
        List.init trials (fun i -> (b, seed + (7919 * i))))
      benches
  in
  let verdicts =
    Exec.Campaign.map ~jobs
      (fun ((b : Kernels.Registry.bench), s) ->
        let c = Minic.Codegen.compile_source b.Kernels.Registry.source in
        ignore
          (Crush.Share.crush c.Minic.Codegen.graph
             ~critical_loops:c.Minic.Codegen.critical_loops);
        let chaos = Sim.Chaos.default ~seed:s in
        (s, Kernels.Harness.run_circuit ~chaos b c.Minic.Codegen.graph))
      tasks
  in
  let failures = ref 0 in
  List.iter
    (fun (b : Kernels.Registry.bench) ->
      let mine =
        List.filter_map
          (fun ((tb : Kernels.Registry.bench), r) ->
            if tb.Kernels.Registry.name = b.Kernels.Registry.name then Some r
            else None)
          (List.combine (List.map fst tasks) verdicts)
      in
      let failed =
        List.filter
          (fun (_, v) -> not v.Kernels.Harness.functionally_correct)
          mine
      in
      List.iter
        (fun (s, v) ->
          Fmt.pr "  FAIL seed %d: %a@." s Kernels.Harness.pp_verdict v)
        failed;
      if failed = [] then
        Fmt.pr "%-10s %d/%d chaos trials ok@." b.Kernels.Registry.name trials
          trials;
      failures := !failures + List.length failed)
    benches;
  !failures

(** Inject each Eq. 1 violation and insist the harness detects the
    deadlock and forensics blames the sharing wrapper.  Returns the
    number of undetected faults. *)
let chaos_fault_check ~report () =
  let misses = ref 0 in
  List.iter
    (fun fault ->
      let built = Crush.Paper_examples.fig1 () in
      let g = Crush.Faults.inject built fault in
      let out = Sim.Engine.run ~max_cycles:100_000 g in
      match Sim.Forensics.analyze out with
      | Some r when Sim.Forensics.core_contains r (Crush.Faults.in_wrapper g)
        ->
          Fmt.pr "fault detected: %s — %d-unit cyclic core@."
            (Crush.Faults.describe fault)
            (match r.Sim.Forensics.cores with
            | core :: _ -> List.length core.Sim.Forensics.members
            | [] -> 0);
          (match report with
          | Some path ->
              let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
              let ppf = Format.formatter_of_out_channel oc in
              Fmt.pf ppf "== %s ==@.%a@.@." (Crush.Faults.describe fault)
                Sim.Forensics.pp r;
              Format.pp_print_flush ppf ();
              close_out oc;
              let dot = path ^ ".dot" in
              let oc = open_out dot in
              output_string oc (Sim.Forensics.to_dot g r);
              close_out oc
          | None -> ())
      | Some _ ->
          incr misses;
          Fmt.pr "FAULT MISSED: %s deadlocked but the wrapper is not in any \
                  cyclic core@."
            (Crush.Faults.describe fault)
      | None ->
          incr misses;
          Fmt.pr "FAULT MISSED: %s did not deadlock (%a)@."
            (Crush.Faults.describe fault)
            Sim.Engine.pp_status out.Sim.Engine.stats.Sim.Engine.status)
    Crush.Faults.all;
  !misses

(* ------------------------------------------------------------------ *)
(* Supervised chaos: taxonomy, watchdogs, retry/quarantine, resume     *)

(** One supervised chaos task: a (kernel, chaos-seed) trial, or one of
    the deliberately broken Eq. 1 circuits that must deadlock. *)
type chaos_task =
  | Trial of Kernels.Registry.bench * int
  | Fault of Crush.Faults.fault

let chaos_key = function
  | Trial (b, s) -> Fmt.str "trial:%s:%d" b.Kernels.Registry.name s
  | Fault f -> Fmt.str "fault:%s" (Crush.Faults.describe f)

(* Journalled payload: (functionally correct, cycles). *)
let chaos_encode (correct, cycles) =
  Exec.Jsonl.Obj
    [ ("correct", Exec.Jsonl.Bool correct); ("cycles", Exec.Jsonl.Int cycles) ]

let chaos_decode j =
  let open Exec.Jsonl in
  match
    (Option.bind (member "correct" j) to_bool,
     Option.bind (member "cycles" j) to_int)
  with
  | Some c, Some n -> Some (c, n)
  | _ -> None

let run_chaos_task ~sanitize ~auto_reduce ~repro_dir ~deadline task =
  let with_monitor name g f =
    if sanitize then sanitized ~deadline ~auto_reduce ~repro_dir ~name g f
    else f (fun _ ~cycle:_ _ -> ())
  in
  match task with
  | Trial (b, s) ->
      let c = Minic.Codegen.compile_source b.Kernels.Registry.source in
      ignore
        (Crush.Share.crush c.Minic.Codegen.graph
           ~critical_loops:c.Minic.Codegen.critical_loops);
      let name = Fmt.str "trial_%s_%d" b.Kernels.Registry.name s in
      with_monitor name c.Minic.Codegen.graph (fun monitor ->
          let chaos = Sim.Chaos.default ~seed:s in
          let out, v =
            Kernels.Harness.run_circuit_full ~deadline ~monitor ~chaos b
              c.Minic.Codegen.graph
          in
          Exec.Outcome.of_sim_run out
          |> Exec.Outcome.map (fun _ ->
                 ( v.Kernels.Harness.functionally_correct,
                   v.Kernels.Harness.cycles )))
  | Fault fault ->
      let g = fault_circuit fault in
      with_monitor ("fault_" ^ fault_slug fault) g (fun monitor ->
          Sim.Engine.run ~max_cycles:100_000 ~deadline ~monitor g
          |> Exec.Outcome.of_sim_run
          |> Exec.Outcome.map (fun stats -> (true, stats.Sim.Engine.cycles)))

(** JSON campaign report (schema-versioned, like the journal), written
    atomically so a kill mid-report never leaves a torn file.  [results]
    are (journal key, outcome) pairs so the in-process and sharded
    sweeps share one writer; [shards = 0] means in-process. *)
let write_chaos_report path ~trials ~seed ~jobs ~shards ~journal_dups summary
    results =
  let open Exec.Jsonl in
  let task_json (key, o) =
    Obj
      [
        ("key", String key);
        ("class", String (Exec.Outcome.class_name o));
        ( "correct",
          match o with
          | Exec.Outcome.Ok (c, _) -> Bool c
          | _ -> Null );
      ]
  in
  let json =
    Obj
      [
        ("schema_version", Int Exec.Journal.schema_version);
        ("campaign", String "chaos");
        ("trials", Int trials);
        ("seed", Int seed);
        ("jobs", Int jobs);
        ("shards", Int shards);
        ("journal_duplicates", Int journal_dups);
        ( "counts",
          Obj
            [
              ("total", Int summary.Exec.Outcome.total);
              ("ok", Int summary.Exec.Outcome.n_ok);
              ("frontend", Int summary.Exec.Outcome.n_frontend);
              ("validation", Int summary.Exec.Outcome.n_validation);
              ("deadlock", Int summary.Exec.Outcome.n_deadlock);
              ("out_of_fuel", Int summary.Exec.Outcome.n_out_of_fuel);
              ("timeout", Int summary.Exec.Outcome.n_timeout);
              ("crash", Int summary.Exec.Outcome.n_crash);
              ("sanitizer", Int summary.Exec.Outcome.n_sanitizer);
              ("worker_lost", Int summary.Exec.Outcome.n_worker_lost);
              ("worker_killed", Int summary.Exec.Outcome.n_worker_killed);
            ] );
        ("tasks", List (List.map task_json results));
      ]
  in
  Exec.Journal.write_atomic path (fun oc ->
      output_string oc (to_string json);
      output_string oc "\n");
  Fmt.pr "wrote %s@." path

(** The supervised sweep: every trial resolves to a classified outcome,
    the batch always drains, and the summary table plus per-class exit
    code replace the legacy first-failure abort.  Fault-injection tasks
    are expected to classify as deadlocks; anything else is a miss. *)
let chaos_supervised ~jobs ~trials ~seed ~sup ~inject_faults
    ~sanitize ~auto_reduce ~repro_dir ~report benches =
  let tasks =
    List.concat_map
      (fun (b : Kernels.Registry.bench) ->
        List.init trials (fun i -> Trial (b, seed + (7919 * i))))
      benches
    @ (if inject_faults then List.map (fun f -> Fault f) Crush.Faults.all
       else [])
  in
  let pending, journal_dups =
    Exec.Campaign.pending_and_dups ~sup ~key:chaos_key tasks
  in
  if pending < List.length tasks then
    Fmt.pr "resuming: %d/%d tasks already journalled, %d to run@."
      (List.length tasks - pending)
      (List.length tasks) pending;
  if journal_dups > 0 then
    Fmt.pr
      "warning: journal carried %d superseded duplicate record(s) — a \
       replayed or merged sweep; latest record wins@."
      journal_dups;
  let results =
    Exec.Campaign.map_outcomes ~jobs ~sup ~key:chaos_key ~encode:chaos_encode
      ~decode:chaos_decode
      (run_chaos_task ~sanitize ~auto_reduce ~repro_dir)
      tasks
  in
  (* Trials: any non-[Ok] outcome is a failure; [Ok] with wrong results
     too.  Faults: [Sim_deadlock] is a detection — and under --sanitize,
     so is [Sanitizer_violation], which convicts strictly earlier; all
     else is a miss (a crash or timeout there is an infrastructure bug,
     not a detected deadlock). *)
  let wrong = ref 0 and missed = ref 0 in
  List.iter
    (fun (task, o) ->
      match (task, o) with
      | Trial _, Exec.Outcome.Ok (true, _) -> ()
      | Trial _, Exec.Outcome.Ok (false, cycles) ->
          incr wrong;
          Fmt.pr "  FAIL %-24s completed (%d cycles) with WRONG RESULTS@."
            (chaos_key task) cycles
      | Trial _, failure ->
          Fmt.pr "  FAIL %-24s %a@." (chaos_key task)
            (Exec.Outcome.pp Fmt.nop) failure
      | Fault _, Exec.Outcome.Sim_deadlock { cycle; _ } ->
          Fmt.pr "fault detected: %s — deadlock at cycle %d@." (chaos_key task)
            cycle
      | Fault _, Exec.Outcome.Sanitizer_violation { cycle; invariant; repro; _ }
        when sanitize ->
          Fmt.pr "fault convicted: %s — %s at cycle %d%a@." (chaos_key task)
            invariant cycle
            Fmt.(option (any ", repro " ++ string))
            repro
      | Fault _, o ->
          incr missed;
          Fmt.pr "FAULT MISSED: %s classified %s (expected deadlock)@."
            (chaos_key task) (Exec.Outcome.class_name o))
    results;
  let trial_outcomes =
    List.filter_map
      (function Trial _, o -> Some o | Fault _, _ -> None)
      results
  in
  let summary = Exec.Outcome.summarize trial_outcomes in
  Fmt.pr "%a@." Exec.Outcome.pp_summary summary;
  let code = Exec.Outcome.summary_exit_code summary in
  (if !wrong > 0 || !missed > 0 || code <> 0 then
     match sup.Exec.Campaign.journal with
     | Some j when Sys.file_exists (Exec.Journal.quarantine_path j) ->
         Fmt.pr "quarantine manifest: %s@." (Exec.Journal.quarantine_path j)
     | _ -> ());
  Option.iter
    (fun path ->
      write_chaos_report path ~trials ~seed ~jobs ~shards:0 ~journal_dups
        summary
        (List.map (fun (t, o) -> (chaos_key t, o)) results))
    report;
  if Exec.Interrupt.triggered () then begin
    (match sup.Exec.Campaign.journal with
    | Some j ->
        Fmt.pr "interrupted: journal flushed — rerun with --journal %s to \
                resume@."
          j
    | None ->
        Fmt.pr "interrupted: partial sweep (no --journal, a rerun starts \
                over)@.");
    exit Exec.Interrupt.exit_code
  end;
  if !wrong > 0 || !missed > 0 then exit 1;
  if code <> 0 then exit code

(* ------------------------------------------------------------------ *)
(* Sharded chaos: crash-isolated worker processes (Exec.Supervisor)    *)

(** The crash-chaos self-test ships one deliberately wedged job: a hot
    loop that never polls a deadline and never heartbeats, which only
    the supervisor's preemptive SIGKILL can stop.  Its key is excluded
    from the journal byte-comparison (a serial run would never finish
    it). *)
let hang_key = "hang:injected"

let hang_spec = Exec.Jsonl.Obj [ ("t", Exec.Jsonl.String "hang") ]

(** Self-describing job spec shipped to chaos workers over the wire. *)
let chaos_spec_of_task = function
  | Trial (b, s) ->
      Exec.Jsonl.Obj
        [
          ("t", Exec.Jsonl.String "trial");
          ("bench", Exec.Jsonl.String b.Kernels.Registry.name);
          ("seed", Exec.Jsonl.Int s);
        ]
  | Fault f ->
      Exec.Jsonl.Obj
        [
          ("t", Exec.Jsonl.String "fault");
          ("fault", Exec.Jsonl.String (fault_slug f));
        ]

let fault_of_slug = function
  | "overalloc" -> Crush.Faults.Overallocated_credits 2
  | "creditless" -> Crush.Faults.Creditless_naive
  | "rotation" -> Crush.Faults.Reversed_rotation
  | s -> failwith ("unknown fault slug " ^ s)

let chaos_task_of_spec j =
  let open Exec.Jsonl in
  match Option.bind (member "t" j) to_str with
  | Some "trial" -> (
      match
        ( Option.bind (member "bench" j) to_str,
          Option.bind (member "seed" j) to_int )
      with
      | Some b, Some s -> `Task (Trial (Kernels.Registry.find b, s))
      | _ -> failwith "malformed trial spec")
  | Some "fault" -> (
      match Option.bind (member "fault" j) to_str with
      | Some slug -> `Task (Fault (fault_of_slug slug))
      | None -> failwith "malformed fault spec")
  | Some "hang" -> `Hang
  | _ -> failwith "malformed chaos spec"

(** The worker half of [chaos --shards]: decode each job spec and run it
    through the {e exact} serial retry loop
    ({!Exec.Campaign.run_with_retries}), so journalled attempts — and
    therefore journal bytes — match a [--jobs 1] run.  The supervisor
    heartbeat piggybacks on the engine's cooperative deadline poll. *)
let chaos_worker_run opts =
  let flag_true k = Exec.Supervisor.flag opts k = Some "true" in
  let timeout_s = Exec.Supervisor.flag_float opts "timeout-s" in
  let retries =
    Option.value ~default:0 (Exec.Supervisor.flag_int opts "retries")
  in
  let sanitize = flag_true "sanitize" in
  let auto_reduce = flag_true "auto-reduce" in
  let repro_dir =
    Option.value ~default:"repros" (Exec.Supervisor.flag opts "repro-dir")
  in
  fun ~(ctx : Exec.Supervisor.job_ctx) spec ->
    match chaos_task_of_spec spec with
    | `Hang ->
        (* Burn CPU forever without polling anything: simulates a hard
           hang the cooperative watchdog cannot classify. *)
        while true do
          ignore (Sys.opaque_identity 0)
        done;
        assert false
    | `Task task ->
        let o, attempts =
          Exec.Campaign.run_with_retries ?timeout_s ~retries (fun ~deadline ->
              let deadline () =
                ctx.Exec.Supervisor.heartbeat ();
                deadline ()
              in
              run_chaos_task ~sanitize ~auto_reduce ~repro_dir ~deadline task)
        in
        (Exec.Outcome.to_json chaos_encode o, attempts)

let string_has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let read_lines path =
  if Sys.file_exists path then
    In_channel.with_open_text path In_channel.input_lines
  else []

(** [chaos --shards N]: the supervised sweep with every shard in its own
    crash-isolated worker process ({!Exec.Supervisor}).  With
    [crash_workers > 0] this doubles as the crash-chaos self-test: that
    many seeded SIGKILLs are delivered to busy workers mid-campaign,
    one hard-hang job is injected (preempted only by the supervisor's
    wall-clock/heartbeat kill), and afterwards the merged journal is
    compared byte-for-byte against a fresh serial [--jobs 1] rerun of
    the same tasks. *)
let chaos_sharded ~shards ~trials ~seed ~timeout_s ~retries ~journal ~fsync
    ~heartbeat_s ~sanitize ~auto_reduce ~repro_dir ~inject_faults
    ~crash_workers ~report benches =
  let tasks =
    List.concat_map
      (fun (b : Kernels.Registry.bench) ->
        List.init trials (fun i -> Trial (b, seed + (7919 * i))))
      benches
    @ (if inject_faults then List.map (fun f -> Fault f) Crush.Faults.all
       else [])
  in
  let journal_path = Option.value journal ~default:"chaos-shards.jsonl" in
  let serial_path = journal_path ^ ".serial" in
  let self_test = crash_workers > 0 in
  (* The self-test asserts recovery re-runs work, so both sides must
     start from scratch: a resumed journal would hide the recovery. *)
  if self_test then begin
    let rm p = if Sys.file_exists p then Sys.remove p in
    rm journal_path;
    rm (Exec.Journal.quarantine_path journal_path);
    rm serial_path;
    rm (Exec.Journal.quarantine_path serial_path);
    for i = 0 to shards - 1 do
      rm (Exec.Shard.shard_journal journal_path i)
    done
  end;
  let sup_tasks =
    List.map
      (fun t ->
        { Exec.Supervisor.key = chaos_key t; spec = chaos_spec_of_task t })
      tasks
    @
    if self_test then [ { Exec.Supervisor.key = hang_key; spec = hang_spec } ]
    else []
  in
  let worker_args =
    [ "__worker"; "--kind"; "chaos" ]
    @ (match timeout_s with
      | Some t -> [ "--opt"; Fmt.str "timeout-s=%g" t ]
      | None -> [])
    @ [ "--opt"; Fmt.str "retries=%d" retries ]
    @ (if sanitize then [ "--opt"; "sanitize=true" ] else [])
    @ (if auto_reduce then [ "--opt"; "auto-reduce=true" ] else [])
    @ [ "--opt"; "repro-dir=" ^ repro_dir ]
  in
  let r =
    Exec.Supervisor.run ~shards
      ?hard_timeout_s:(Option.map (fun t -> (4. *. t) +. 1.) timeout_s)
      ~heartbeat_s ~retries ~seed ~journal:journal_path ~fsync
      ~chaos_kills:crash_workers ~worker_args ~tasks:sup_tasks ()
  in
  let decoded =
    List.map
      (fun (key, _attempts, oj) ->
        match Exec.Outcome.of_json chaos_decode oj with
        | Some o -> (key, o)
        | None ->
            ( key,
              Exec.Outcome.Worker_crash
                { exn = "undecodable journal outcome"; backtrace = "" } ))
      r.Exec.Supervisor.outcomes
  in
  let wrong = ref 0 and missed = ref 0 in
  List.iter
    (fun (key, o) ->
      if string_has_prefix ~prefix:"trial:" key then (
        match o with
        | Exec.Outcome.Ok (true, _) -> ()
        | Exec.Outcome.Ok (false, cycles) ->
            incr wrong;
            Fmt.pr "  FAIL %-24s completed (%d cycles) with WRONG RESULTS@."
              key cycles
        | failure ->
            Fmt.pr "  FAIL %-24s %a@." key (Exec.Outcome.pp Fmt.nop) failure)
      else if key = hang_key then (
        match o with
        | Exec.Outcome.Worker_killed { after_s; shard } ->
            Fmt.pr
              "hang preempted: shard %d SIGKILLed after %.1fs (classified \
               worker-killed)@."
              shard after_s
        | Exec.Outcome.Worker_lost { shard; reason } ->
            Fmt.pr "hang preempted: shard %d lost (%s)@." shard reason
        | o ->
            incr missed;
            Fmt.pr
              "HANG SURVIVED: %s classified %s (expected worker-killed)@." key
              (Exec.Outcome.class_name o))
      else
        match o with
        | Exec.Outcome.Sim_deadlock { cycle; _ } ->
            Fmt.pr "fault detected: %s — deadlock at cycle %d@." key cycle
        | Exec.Outcome.Sanitizer_violation { cycle; invariant; repro; _ }
          when sanitize ->
            Fmt.pr "fault convicted: %s — %s at cycle %d%a@." key invariant
              cycle
              Fmt.(option (any ", repro " ++ string))
              repro
        | o ->
            incr missed;
            Fmt.pr "FAULT MISSED: %s classified %s (expected deadlock)@." key
              (Exec.Outcome.class_name o))
    decoded;
  let trial_outcomes =
    List.filter_map
      (fun (k, o) -> if string_has_prefix ~prefix:"trial:" k then Some o else None)
      decoded
  in
  let summary = Exec.Outcome.summarize trial_outcomes in
  Fmt.pr "%a@." Exec.Outcome.pp_summary summary;
  let st : Exec.Supervisor.stats = r.Exec.Supervisor.stats in
  Fmt.pr
    "shards: %d worker(s), %d resumed, %d chaos kill(s), %d preempted, %d \
     lost, %d respawn(s), %d retired, %d poisoned, %d merged dup(s), %d \
     resume dup(s)@."
    shards st.n_resumed st.n_chaos_kills st.n_preempted st.n_lost
    st.n_respawns st.n_retired st.n_poisoned st.merged_dups st.n_resume_dups;
  if st.n_resume_dups > 0 then
    Fmt.pr
      "warning: resume superseded %d duplicate journal record(s) — a \
       replayed or merged sweep; latest record wins@."
      st.n_resume_dups;
  let self_test_failed = ref (self_test && st.n_chaos_kills < crash_workers) in
  if !self_test_failed then
    Fmt.pr "crash-chaos: MISSED KILLS: %d of %d chaos kill(s) landed@."
      st.n_chaos_kills crash_workers;
  if self_test then begin
    Fmt.pr "crash-chaos: serial rerun for the byte-identity check...@.";
    let sup =
      Exec.Campaign.supervision ?timeout_s ~retries ~journal:serial_path
        ~fsync ()
    in
    ignore
      (Exec.Campaign.map_outcomes ~jobs:1 ~sup ~key:chaos_key
         ~encode:chaos_encode ~decode:chaos_decode
         (run_chaos_task ~sanitize ~auto_reduce ~repro_dir)
         tasks);
    let keep l =
      match Exec.Journal.entry_of_line l with
      | Some e -> e.Exec.Journal.key <> hang_key
      | None -> true
    in
    let merged = List.filter keep (read_lines journal_path) in
    let serial = read_lines serial_path in
    if merged = serial then
      Fmt.pr
        "crash-chaos: merged journal bit-identical to the serial run (%d \
         record(s))@."
        (List.length serial)
    else begin
      self_test_failed := true;
      Fmt.pr
        "crash-chaos: MERGED JOURNAL DIVERGES from the serial run (%d vs %d \
         record(s))@."
        (List.length merged) (List.length serial);
      let rec first_diff i = function
        | [], [] -> ()
        | l :: _, [] | [], l :: _ ->
            Fmt.pr "  first unmatched record %d: %s@." i l
        | a :: xs, b :: ys ->
            if a = b then first_diff (i + 1) (xs, ys)
            else
              Fmt.pr "  record %d differs:@.    merged: %s@.    serial: %s@."
                i a b
      in
      first_diff 0 (merged, serial)
    end
  end;
  let code = Exec.Outcome.summary_exit_code summary in
  (if !wrong > 0 || !missed > 0 || !self_test_failed || code <> 0 then
     if Sys.file_exists (Exec.Journal.quarantine_path journal_path) then
       Fmt.pr "quarantine manifest: %s@."
         (Exec.Journal.quarantine_path journal_path));
  Option.iter
    (fun path ->
      write_chaos_report path ~trials ~seed ~jobs:shards ~shards
        ~journal_dups:(st.merged_dups + st.n_resume_dups) summary decoded)
    report;
  if Exec.Interrupt.triggered () then begin
    Fmt.pr
      "interrupted: journal flushed — rerun with --journal %s to resume@."
      journal_path;
    exit Exec.Interrupt.exit_code
  end;
  if !wrong > 0 || !missed > 0 || !self_test_failed then exit 1;
  if code <> 0 then exit code

(** Run the fault-schedule explorer over [scenarios]; returns
    (rows, runs, violations) where [rows] is the JSONL verdict table. *)
let faultfs_explore ?faults ?only_op ~root scenarios =
  let rows = ref [] in
  let runs = ref 0 in
  let bad = ref 0 in
  List.iter
    (fun (s : Exec.Faultfs.scenario) ->
      let r = Exec.Faultfs.explore ?faults ?only_op ~root s in
      let viol = Exec.Faultfs.violations r in
      runs := !runs + List.length r.Exec.Faultfs.verdicts;
      bad := !bad + List.length viol;
      List.iter
        (fun v ->
          rows :=
            Exec.Faultfs.verdict_to_json ~scenario_name:s.Exec.Faultfs.name v
            :: !rows)
        r.Exec.Faultfs.verdicts;
      Fmt.pr "faultfs: %-9s %3d ops, %4d injected runs, %d violation(s)@."
        s.Exec.Faultfs.name r.Exec.Faultfs.total_ops
        (List.length r.Exec.Faultfs.verdicts)
        (List.length viol);
      List.iter
        (fun (v : Exec.Faultfs.verdict) ->
          List.iter
            (fun msg ->
              Fmt.pr "  VIOLATION %s op %d %s (%s): %s@."
                s.Exec.Faultfs.name v.Exec.Faultfs.op
                (Exec.Fio.fault_to_string v.Exec.Faultfs.fault)
                (Exec.Faultfs.outcome_to_string v.Exec.Faultfs.outcome)
                msg)
            v.Exec.Faultfs.violations)
        viol)
    scenarios;
  (List.rev !rows, !runs, !bad)

let chaos_cmd =
  let doc =
    "Adversarial robustness check: fuzz CRUSH-shared kernels with seeded \
     chaos (stalls, latency inflation, port jitter, arbiter permutation) \
     expecting unchanged results, then inject Eq. 1 violations expecting \
     detected deadlocks whose forensics blame the sharing wrapper.  With \
     $(b,--keep-going), $(b,--timeout-s), $(b,--retries), $(b,--journal) or \
     $(b,--inject-faults) the sweep runs supervised: every trial resolves \
     to a classified outcome (the batch always drains), transient failures \
     retry and quarantine, and the journal makes reruns resume instead of \
     restart."
  in
  let run trials seed kernel report jobs keep_going timeout_s retries journal
      inject_faults sanitize auto_reduce repro_dir profile trace shards
      crash_workers fsync heartbeat_s faultfs =
    Exec.Interrupt.install ();
    if faultfs then begin
      (* The durability counterpart of the circuit chaos below: explore
         every I/O fault schedule before trusting the journals the sweep
         itself leans on. *)
      let _, runs, bad =
        faultfs_explore ~root:"_build/faultfs" (Exec.Faultfs.builtin ())
      in
      if bad > 0 then begin
        Fmt.pr "chaos: faultfs found %d violation(s) across %d runs@." bad
          runs;
        exit 1
      end;
      Fmt.pr "chaos: faultfs clean (%d injected runs)@." runs
    end;
    (match report with
    | Some path -> if Sys.file_exists path then Sys.remove path
    | None -> ());
    let sanitize = sanitize || auto_reduce in
    let benches =
      match kernel with
      | Some k -> [ Kernels.Registry.find k ]
      | None -> Kernels.Registry.all
    in
    (* Asking for crash chaos without a shard count means "shard it". *)
    let shards = if crash_workers > 0 && shards = 0 then 2 else shards in
    let supervised =
      keep_going || inject_faults || timeout_s <> None || retries > 0
      || journal <> None || sanitize
    in
    if shards > 0 then begin
      chaos_observe ~seed ~profile ~trace benches;
      chaos_sharded ~shards ~trials ~seed ~timeout_s ~retries ~journal ~fsync
        ~heartbeat_s ~sanitize ~auto_reduce ~repro_dir ~inject_faults
        ~crash_workers ~report benches
    end
    else if supervised then begin
      let sup =
        Exec.Campaign.supervision ?timeout_s ~retries ?journal ~fsync ()
      in
      chaos_observe ~seed ~profile ~trace benches;
      chaos_supervised ~jobs ~trials ~seed ~sup ~inject_faults
        ~sanitize ~auto_reduce ~repro_dir ~report benches
    end
    else begin
      let failures = chaos_sweep ~jobs ~trials ~seed benches in
      let misses = chaos_fault_check ~report () in
      chaos_observe ~seed ~profile ~trace benches;
      if failures = 0 && misses = 0 then
        Fmt.pr "chaos: all %d kernels x %d trials ok, %d/%d faults detected@."
          (List.length benches) trials
          (List.length Crush.Faults.all)
          (List.length Crush.Faults.all)
      else begin
        Fmt.pr "chaos: %d trial failure(s), %d undetected fault(s)@." failures
          misses;
        exit 1
      end
    end
  in
  let shards_arg =
    Arg.(
      value
      & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Run the sweep across $(docv) crash-isolated worker processes \
             (implies supervision).  Each shard journals privately; the \
             merged journal is bit-identical to a $(b,--jobs 1) run.")
  in
  let crash_workers_arg =
    Arg.(
      value
      & opt int 0
      & info [ "crash-workers" ] ~docv:"N"
          ~doc:
            "Crash-chaos self-test: SIGKILL $(docv) random busy workers at \
             seeded points mid-campaign, inject one hard-hang job that only \
             the supervisor's preemptive kill can stop, then assert the \
             sweep recovers and its merged journal is byte-identical to a \
             fresh serial rerun.")
  in
  let fsync_arg =
    Arg.(
      value & flag
      & info [ "fsync" ]
          ~doc:
            "fsync every journal record (shard and campaign journals), so \
             checkpoints survive machine death, not just process death.")
  in
  let heartbeat_arg =
    Arg.(
      value
      & opt float 5.0
      & info [ "heartbeat-s" ] ~docv:"SECONDS"
          ~doc:
            "Sharded mode: SIGKILL a worker silent for longer than $(docv) \
             (no heartbeat, no result).  0 disables the silence watchdog.")
  in
  let chaos_faultfs_arg =
    Arg.(
      value & flag
      & info [ "faultfs" ]
          ~doc:
            "Run the exhaustive I/O fault-schedule explorer (see \
             $(b,crush faultfs)) over the built-in durability scenarios \
             before the sweep; exit 1 on any recovery-invariant \
             violation.")
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ trials_arg $ seed_arg $ kernel_arg $ report_arg $ jobs_arg
      $ keep_going_arg $ timeout_arg $ retries_arg $ journal_arg
      $ inject_faults_arg $ sanitize_arg $ auto_reduce_arg $ repro_dir_arg
      $ chaos_profile_arg $ chaos_trace_arg $ shards_arg $ crash_workers_arg
      $ fsync_arg $ heartbeat_arg $ chaos_faultfs_arg)

(* ------------------------------------------------------------------ *)
(* sanitize: sanitizer self-test + clean-circuit zero-violation sweep  *)

(** Each Eq. 1 fault circuit must be convicted by the sanitizers
    strictly earlier than the engine's quiescence-based deadlock
    detection would have reported it.  Returns the failure count. *)
let sanitize_fault_check () =
  let failures = ref 0 in
  List.iter
    (fun fault ->
      let unmonitored = Sim.Engine.run ~max_cycles:100_000 (fault_circuit fault) in
      let deadlock_cycle =
        match unmonitored.Sim.Engine.stats.Sim.Engine.status with
        | Sim.Engine.Deadlock c -> c
        | _ -> max_int
      in
      match
        Sim.Engine.run ~max_cycles:100_000
          ~monitor:(Sim.Sanitizer.monitor ())
          (fault_circuit fault)
      with
      | (_ : Sim.Engine.outcome) ->
          incr failures;
          Fmt.pr "SANITIZER MISS: %s raised no violation@."
            (Crush.Faults.describe fault)
      | exception Sim.Sanitizer.Violation v ->
          if v.Sim.Sanitizer.cycle < deadlock_cycle then
            Fmt.pr "convicted %-10s %-22s cycle %d (quiescence deadlock: %s)@."
              (fault_slug fault) v.Sim.Sanitizer.invariant
              v.Sim.Sanitizer.cycle
              (if deadlock_cycle = max_int then "never"
               else string_of_int deadlock_cycle)
          else begin
            incr failures;
            Fmt.pr "SANITIZER LATE: %s convicted at cycle %d, not earlier \
                    than deadlock cycle %d@."
              (fault_slug fault) v.Sim.Sanitizer.cycle deadlock_cycle
          end)
    Crush.Faults.all;
  !failures

(** Every kernel x codegen strategy x chaos seed (plus one unperturbed
    run each) must complete, correctly, with zero sanitizer violations.
    Returns the failure count. *)
let sanitize_sweep ~trials ~seed benches =
  let failures = ref 0 in
  List.iter
    (fun (b : Kernels.Registry.bench) ->
      List.iter
        (fun strategy ->
          for t = 0 to trials do
            let c =
              Minic.Codegen.compile_source ~strategy b.Kernels.Registry.source
            in
            ignore
              (Crush.Share.crush c.Minic.Codegen.graph
                 ~critical_loops:c.Minic.Codegen.critical_loops);
            let chaos =
              if t = 0 then None
              else Some (Sim.Chaos.default ~seed:(seed + (7919 * t)))
            in
            let where () =
              Fmt.str "%s/%s%s" b.Kernels.Registry.name
                (Minic.Codegen.string_of_strategy strategy)
                (if t = 0 then "" else Fmt.str "/seed+%d" (7919 * t))
            in
            match
              Kernels.Harness.run_circuit
                ~monitor:(Sim.Sanitizer.monitor ())
                ?chaos b c.Minic.Codegen.graph
            with
            | v ->
                if not v.Kernels.Harness.functionally_correct then begin
                  incr failures;
                  Fmt.pr "  FAIL %s: %a@." (where ()) Kernels.Harness.pp_verdict
                    v
                end
            | exception Sim.Sanitizer.Violation v ->
                incr failures;
                Fmt.pr "  VIOLATION %s: %a@." (where ())
                  Sim.Sanitizer.pp_violation v
          done)
        [ Minic.Codegen.Bb_ordered; Minic.Codegen.Fast_token ])
    benches;
  !failures

let skip_faults_arg =
  Arg.(
    value & flag
    & info [ "skip-faults" ]
        ~doc:"Skip the fault-injection self-test; run only the clean sweep.")

let sanitize_cmd =
  let doc =
    "Self-test the elastic-protocol sanitizers: the three Eq. 1 fault \
     circuits must be convicted strictly earlier than quiescence-based \
     deadlock detection, and every kernel x codegen strategy x chaos seed \
     must complete with zero violations (the sanitizers never cry wolf)."
  in
  let run trials seed kernel skip_faults =
    let benches =
      match kernel with
      | Some k -> [ Kernels.Registry.find k ]
      | None -> Kernels.Registry.all
    in
    let fault_failures = if skip_faults then 0 else sanitize_fault_check () in
    let sweep_failures = sanitize_sweep ~trials ~seed benches in
    if fault_failures = 0 && sweep_failures = 0 then
      Fmt.pr
        "sanitize: %d kernels x 2 strategies x %d runs clean%s@."
        (List.length benches) (trials + 1)
        (if skip_faults then "" else ", all 3 faults convicted early")
    else begin
      Fmt.pr "sanitize: %d self-test failure(s), %d sweep failure(s)@."
        fault_failures sweep_failures;
      exit 1
    end
  in
  Cmd.v (Cmd.info "sanitize" ~doc)
    Term.(const run $ trials_arg $ seed_arg $ kernel_arg $ skip_faults_arg)

(* ------------------------------------------------------------------ *)
(* reduce: ddmin minimization of failing circuits                      *)

let reduce_cmd =
  let doc =
    "Minimize a failing circuit with the ddmin reducer: shrink one of the \
     Eq. 1 fault circuits to a handful of units that still trip the same \
     sanitizer invariant ($(b,--fault)), or replay a previously written \
     reproducer ($(b,--replay))."
  in
  let fault_arg =
    Arg.(
      value
      & opt (some fault_conv) None
      & info [ "fault" ] ~docv:"F"
          ~doc:"Fault circuit to minimize: overalloc, creditless or rotation.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "repros"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for the $(i,.repro.json) and DOT outputs.")
  in
  let budget_arg =
    Arg.(
      value
      & opt int 250
      & info [ "budget" ] ~docv:"N"
          ~doc:"Predicate-evaluation budget (validate + simulate per \
                candidate).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-run a $(i,.repro.json) and check it still trips the \
                recorded invariant at the recorded cycle.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-s" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget for the whole reduction.  When it expires \
             the reducer stops, keeps the smallest reproducer found so far \
             (still written and valid), and exits 14.")
  in
  let run fault out budget replay timeout_s =
    match (replay, fault) with
    | Some path, _ -> (
        match Exec.Reduce.load_repro path with
        | None ->
            Fmt.epr "cannot load %s@." path;
            exit 1
        | Some (meta, g) -> (
            match Exec.Reduce.simulate ~max_cycles:100_000 g with
            | Some v
              when v.Sim.Sanitizer.invariant = meta.Exec.Reduce.invariant
                   && v.Sim.Sanitizer.cycle = meta.Exec.Reduce.cycle ->
                Fmt.pr "repro %s: %s at cycle %d, as recorded@." path
                  meta.Exec.Reduce.invariant meta.Exec.Reduce.cycle
            | Some v ->
                Fmt.pr
                  "repro %s DRIFTED: got %s at cycle %d, recorded %s at %d@."
                  path v.Sim.Sanitizer.invariant v.Sim.Sanitizer.cycle
                  meta.Exec.Reduce.invariant meta.Exec.Reduce.cycle;
                exit 1
            | None ->
                Fmt.pr "repro %s no longer trips any invariant@." path;
                exit 1))
    | None, None ->
        Fmt.epr "reduce: need --fault or --replay@.";
        exit 2
    | None, Some fault -> (
        let g = fault_circuit fault in
        let before = Dataflow.Graph.live_unit_count g in
        let deadline =
          Option.map
            (fun s ->
              let t0 = Unix.gettimeofday () in
              fun () -> Unix.gettimeofday () -. t0 >= s)
            timeout_s
        in
        match
          Exec.Reduce.reduce_to_files ?deadline ~budget ~dir:out
            ~name:("fault_" ^ fault_slug fault)
            ~fault:(Crush.Faults.describe fault)
            g
        with
        | None ->
            Fmt.pr "reduce: %s trips no sanitizer invariant@."
              (fault_slug fault);
            exit 1
        | Some (path, r) ->
            Fmt.pr
              "reduced %s: %d -> %d units (%d predicate evals), %s at cycle \
               %d@.wrote %s@."
              (fault_slug fault) before r.Exec.Reduce.kept_units
              r.Exec.Reduce.evals
              r.Exec.Reduce.violation.Sim.Sanitizer.invariant
              r.Exec.Reduce.violation.Sim.Sanitizer.cycle path;
            if r.Exec.Reduce.timed_out then begin
              Fmt.pr
                "reduce: wall-clock budget hit; kept the best-so-far \
                 reproducer@.";
              (* 14 = the Job_timeout class of the exit-code contract. *)
              exit 14
            end)
  in
  Cmd.v (Cmd.info "reduce" ~doc)
    Term.(
      const run $ fault_arg $ out_arg $ budget_arg $ replay_arg $ timeout_arg)

(* ------------------------------------------------------------------ *)
(* serve: the fault-tolerant compile-and-simulate daemon               *)

let serve_cmd =
  let doc =
    "Long-lived compile-and-simulate daemon: POST mini-C, a registry \
     kernel or a circuit JSON to /v1/submit and get the classified \
     outcome back over HTTP.  Every request carries a deadline that \
     propagates into the simulator's cooperative watchdog; per-tenant \
     token buckets (requests/s and simulation fuel/s) and a bounded \
     dispatch queue shed overload with 429 + Retry-After; results are \
     cached by content hash with single-flight dedup; each job runs in \
     a separate worker process so a crash or SIGKILL costs exactly one \
     request (503, worker-lost).  SIGTERM/SIGINT drains gracefully: \
     in-flight requests finish, workers shut down, and the exit line \
     reports leaked fds and surviving workers."
  in
  let host_arg =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port_arg =
    Arg.(
      value
      & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen port; 0 picks an ephemeral port (printed at boot).")
  in
  let workers_arg =
    Arg.(
      value
      & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Worker process pool size.")
  in
  let max_conns_arg =
    Arg.(
      value
      & opt int 32
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Concurrent connection cap; excess connections get 429.")
  in
  let queue_depth_arg =
    Arg.(
      value
      & opt int 16
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Dispatch-queue watermark: requests waiting for a worker past \
             $(docv) are shed with 429 + Retry-After.")
  in
  let cache_arg =
    Arg.(
      value
      & opt int 256
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:
            "Content-hash result cache entries (least recently used \
             evicted first).")
  in
  let req_rate_arg =
    Arg.(
      value
      & opt float 50.0
      & info [ "req-rate" ] ~docv:"R"
          ~doc:"Per-tenant request tokens per second (burst 2x).")
  in
  let fuel_rate_arg =
    Arg.(
      value
      & opt float 5e6
      & info [ "fuel-rate" ] ~docv:"R"
          ~doc:
            "Per-tenant simulation-fuel tokens per second; each request \
             charges its max_cycles (burst 4x).")
  in
  let header_timeout_arg =
    Arg.(
      value
      & opt float 2.0
      & info [ "header-timeout-s" ] ~docv:"S"
          ~doc:"Slow-loris bound: whole request must arrive within $(docv).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt float 10.0
      & info [ "deadline-s" ] ~docv:"S"
          ~doc:"Default request deadline when the client sends no \
                deadline_ms.")
  in
  let serve_heartbeat_arg =
    Arg.(
      value
      & opt float 5.0
      & info [ "heartbeat-s" ] ~docv:"S"
          ~doc:"SIGKILL a worker silent for longer than $(docv); 0 \
                disables.")
  in
  let serve_journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append every completed request (key, attempts, outcome) to \
             $(docv); preexisting duplicate-key records are counted and \
             surfaced in /v1/stats.")
  in
  let serve_seed_arg =
    Arg.(
      value
      & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Retry-After jitter seed.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Log per-connection errors.")
  in
  let batch_domains_arg =
    Arg.(
      value
      & opt int 2
      & info [ "batch-domains" ] ~docv:"N"
          ~doc:
            "In-process batch tier: $(docv) domains replay cache-warm, \
             unmonitored, short-deadline jobs over compiled engine images \
             without a worker round-trip.  0 disables the tier (every job \
             runs in a worker process).")
  in
  let image_cache_mb_arg =
    Arg.(
      value
      & opt int 256
      & info [ "image-cache-mb" ] ~docv:"MB"
          ~doc:
            "Byte budget for the compiled-image cache (LRU, single-flight; \
             keyed by circuit digest, so jobs differing only in seed, fuel \
             or sanitize share one image).")
  in
  let batch_deadline_arg =
    Arg.(
      value
      & opt float 15.0
      & info [ "batch-deadline-s" ] ~docv:"S"
          ~doc:
            "Jobs with more than $(docv) of deadline left stay on the \
             worker tier: a batch domain is only cooperatively \
             preemptible, so the in-process tier admits only bounded \
             occupancy.")
  in
  let serve_faultfs_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faultfs" ] ~docv:"PLAN"
          ~doc:
            "Robustness self-test: arm the I/O fault injector against the \
             request journal (requires $(b,--journal)) with $(docv), e.g. \
             $(b,eio:every=2) or $(b,enospc:every=3).  Affected requests \
             classify 503 journal-lost; after 3 consecutive failures the \
             daemon degrades to serving un-audited.  Only error-class \
             faults (eio, enospc, eintr) are allowed — crash classes \
             would simulate daemon death, not survive it.")
  in
  let run host port workers max_conns queue_depth cache_capacity req_rate
      fuel_rate header_timeout_s default_deadline_s heartbeat_s journal seed
      verbose batch_domains image_cache_mb batch_deadline_s faultfs =
    Exec.Interrupt.install ();
    let faultfs_plan =
      match faultfs with
      | None -> None
      | Some spec -> (
          match Exec.Fio.plan_of_string spec with
          | Error msg ->
              Fmt.epr "crush serve: --faultfs: %s@." msg;
              exit 2
          | Ok plan -> (
              let fault =
                match plan with
                | Exec.Fio.At { fault; _ } | Exec.Fio.Every { fault; _ } ->
                    fault
              in
              match (fault, journal) with
              | (Exec.Fio.Short_write | Exec.Fio.Crash_after), _ ->
                  Fmt.epr
                    "crush serve: --faultfs: crash-class faults are for the \
                     offline explorer (crush faultfs), not a live daemon@.";
                  exit 2
              | _, None ->
                  Fmt.epr "crush serve: --faultfs requires --journal@.";
                  exit 2
              | _, Some jpath -> Some (jpath, plan)))
    in
    let cfg =
      {
        (Serve.Server.default_config ~binary:Sys.executable_name) with
        Serve.Server.host;
        port;
        workers;
        max_conns;
        queue_depth;
        cache_capacity;
        req_rate;
        req_burst = 2.0 *. req_rate;
        fuel_rate;
        fuel_burst = 4.0 *. fuel_rate;
        header_timeout_s;
        default_deadline_s;
        heartbeat_s;
        journal;
        seed;
        verbose;
        batch_domains;
        image_cache_bytes = max 1 (image_cache_mb * 1024 * 1024);
        batch_long_deadline_s = batch_deadline_s;
      }
    in
    (* Armed before the journal is opened so the channel registers with
       the injector; boot-time journal I/O is in scope on purpose (a
       plan that kills the open fails the daemon fast and loud). *)
    (match faultfs_plan with
    | Some (jpath, plan) -> Exec.Fio.arm ~path_filter:jpath plan
    | None -> ());
    let t = Serve.Server.create cfg in
    Fmt.pr "crush serve: listening on %s:%d (%d workers, queue %d)@." host
      (Serve.Server.port t) workers queue_depth;
    (* After the listening line, which harnesses parse first. *)
    (match faultfs_plan with
    | Some (jpath, plan) ->
        Fmt.pr "crush serve: faultfs armed (%s) against %s@."
          (Exec.Fio.plan_to_string plan) jpath
    | None -> ());
    let d = Serve.Server.run t in
    (match faultfs_plan with
    | Some _ ->
        let injected = Exec.Fio.fired () in
        let ops = Exec.Fio.disarm () in
        Fmt.pr "crush serve: faultfs injected %d fault(s) across %d ops@."
          injected ops
    | None -> ());
    Fmt.pr
      "crush serve: drained conns_left=%d workers_alive=%d leaked_fds=%d@."
      d.Serve.Server.conns_left d.Serve.Server.workers_alive
      d.Serve.Server.leaked_fds;
    if
      d.Serve.Server.conns_left > 0
      || d.Serve.Server.workers_alive > 0
      || d.Serve.Server.leaked_fds > 0
    then exit 1
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ host_arg $ port_arg $ workers_arg $ max_conns_arg
      $ queue_depth_arg $ cache_arg $ req_rate_arg $ fuel_rate_arg
      $ header_timeout_arg $ deadline_arg $ serve_heartbeat_arg
      $ serve_journal_arg $ serve_seed_arg $ verbose_arg $ batch_domains_arg
      $ image_cache_mb_arg $ batch_deadline_arg $ serve_faultfs_arg)

(* ------------------------------------------------------------------ *)
(* bench-serve: load + chaos harness for the daemon                    *)

(** One HTTP exchange against the local daemon.  Opens a fresh
    connection (the server is one-request-per-connection by design). *)
let serve_post ~port ~path ?(headers = []) ~timeout_s body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Serve.Http.write_request fd ~meth:"POST" ~path ~headers body;
      Serve.Http.read_response ~deadline:(Unix.gettimeofday () +. timeout_s) fd)

let serve_get ~port ~path ~timeout_s =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Serve.Http.write_request fd ~meth:"GET" ~path "";
      Serve.Http.read_response ~deadline:(Unix.gettimeofday () +. timeout_s) fd)

(** Spawn [crush serve] as a child with its stdout piped back; returns
    (pid, stdout fd, port) once the listening line arrives. *)
let spawn_serve ?(extra_argv = []) ~workers ~queue_depth ~req_rate ~seed () =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv =
    Array.of_list
      ([
         Sys.executable_name; "serve"; "--port"; "0"; "--workers";
         string_of_int workers; "--queue-depth"; string_of_int queue_depth;
         "--req-rate"; Fmt.str "%g" req_rate; "--seed"; string_of_int seed;
         "--header-timeout-s"; "1";
       ]
      @ extra_argv)
  in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 256 in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait_line () =
    let s = Buffer.contents acc in
    match String.index_opt s '\n' with
    | Some i -> String.sub s 0 i
    | None ->
        if Unix.gettimeofday () >= deadline then
          failwith "bench-serve: server never printed its listening line"
        else begin
          (match Unix.select [ r ] [] [] 0.25 with
          | [], _, _ -> ()
          | _ -> (
              match Unix.read r buf 0 (Bytes.length buf) with
              | 0 -> failwith "bench-serve: server exited before listening"
              | k -> Buffer.add_subbytes acc buf 0 k));
          wait_line ()
        end
  in
  let line = wait_line () in
  let port =
    (* "... listening on 127.0.0.1:PORT (...)" *)
    match String.split_on_char ':' line with
    | _ :: _ ->
        let after =
          List.nth (String.split_on_char ':' line)
            (List.length (String.split_on_char ':' line) - 1)
        in
        (match String.split_on_char ' ' (String.trim after) with
        | p :: _ -> int_of_string_opt p
        | [] -> None)
    | [] -> None
  in
  match port with
  | Some p -> (pid, r, p)
  | None -> failwith ("bench-serve: cannot parse listening line: " ^ line)

(** Drain the child's remaining stdout (the drain summary) and reap. *)
let reap_serve pid r =
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 256 in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    if Unix.gettimeofday () < deadline then
      match Unix.select [ r ] [] [] 0.25 with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read r buf 0 (Bytes.length buf) with
          | 0 -> ()
          | k ->
              Buffer.add_subbytes acc buf 0 k;
              go ())
  in
  go ();
  (try Unix.close r with Unix.Unix_error _ -> ());
  let status =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 128
    | exception Unix.Unix_error _ -> 128
  in
  (status, Buffer.contents acc)

(** Pull "k=v" integer fields out of the drain summary line. *)
let drain_field out k =
  let marker = k ^ "=" in
  let rec find i =
    if i + String.length marker > String.length out then None
    else if String.sub out i (String.length marker) = marker then begin
      let j = ref (i + String.length marker) in
      let start = !j in
      while
        !j < String.length out
        && (out.[!j] = '-' || (out.[!j] >= '0' && out.[!j] <= '9'))
      do
        incr j
      done;
      int_of_string_opt (String.sub out start (!j - start))
    end
    else find (i + 1)
  in
  find 0

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (p * n / 100))

let bench_serve_cmd =
  let doc =
    "Load-and-chaos harness for $(b,crush serve): boots a private daemon \
     on an ephemeral port, drives it with N concurrent clients over a \
     mixed workload (cache-hit, cache-miss, malformed, deadline-0), \
     optionally SIGKILLs live workers mid-run and runs protocol-chaos \
     clients (slow-loris, oversized payloads, mid-request disconnects), \
     then SIGTERMs the daemon and checks the drain: no leaked fds, no \
     surviving workers, correct API codes throughout.  Writes \
     schema-versioned latency/shed/cache metrics to BENCH_serve.json."
  in
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client threads.")
  in
  let requests_arg =
    Arg.(
      value & opt int 8
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let kill_workers_arg =
    Arg.(
      value & opt int 0
      & info [ "kill-workers" ] ~docv:"N"
          ~doc:
            "SIGKILL $(docv) live worker processes mid-run; the affected \
             requests must classify worker-lost (503) and the daemon must \
             keep serving.")
  in
  let chaos_clients_arg =
    Arg.(
      value & opt int 0
      & info [ "chaos-clients" ] ~docv:"N"
          ~doc:
            "Run $(docv) protocol-chaos clients alongside the load: \
             slow-loris headers, oversized payloads, mid-request \
             disconnects.  The daemon must survive without leaking fds or \
             workers.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_serve.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"Metrics report path.")
  in
  let bench_workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Daemon worker pool size.")
  in
  let bench_faultfs_arg =
    Arg.(
      value & flag
      & info [ "faultfs" ]
          ~doc:
            "Journal-fault leg: boot the daemon with a request journal and \
             $(b,--faultfs eio:every=2), so every other journal append \
             fails.  The gate then also requires journal errors in \
             /v1/stats, at least one 503 journal-lost or a degraded \
             journal, and the usual clean drain.")
  in
  let connections_arg =
    Arg.(
      value & opt int 0
      & info [ "connections" ] ~docv:"N"
          ~doc:
            "High-concurrency scale leg: after the mixed-workload legs, \
             drive $(docv) concurrent connections for $(b,--duration) \
             seconds, alternating short-deadline (batch-tier) and \
             long-deadline (worker-tier) cache-warm jobs with fresh seeds \
             (so every request runs, none is absorbed by the result \
             cache).  Reports per-tier p50/p99 and throughput plus the \
             image-cache hit rate, and gates batch-tier p50 strictly \
             below worker-tier p50.  0 disables the leg.")
  in
  let duration_arg =
    Arg.(
      value & opt float 5.0
      & info [ "duration" ] ~docv:"S"
          ~doc:"Scale-leg duration in seconds (with $(b,--connections)).")
  in
  let run clients requests kill_workers chaos_clients out workers faultfs
      connections duration =
    Exec.Interrupt.install ();
    (* Chaos clients write into sockets the server may already have
       reset; that must surface as EPIPE, not kill the harness. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let faultfs_journal =
      if not faultfs then None
      else
        Some
          (Filename.concat
             (Filename.get_temp_dir_name ())
             (Fmt.str "crush-bench-faultfs-%d.jsonl" (Unix.getpid ())))
    in
    (match faultfs_journal with
    | Some j when Sys.file_exists j -> Sys.remove j
    | _ -> ());
    let extra_argv =
      (match faultfs_journal with
      | None -> []
      | Some j -> [ "--journal"; j; "--faultfs"; "eio:every=2" ])
      @
      (* The scale leg measures tier latency, not tenant quotas: with
         the default fuel rate a fast batch tier would shed itself. *)
      if connections > 0 then [ "--fuel-rate"; "1e9" ] else []
    in
    let pid, child_out, port =
      spawn_serve ~extra_argv ~workers ~queue_depth:16 ~req_rate:500.0 ~seed:1
        ()
    in
    Fmt.pr "bench-serve: daemon pid %d on port %d@." pid port;
    let m = Mutex.create () in
    let results : (float * int * string) list ref = ref [] in
    let record lat status code =
      Mutex.lock m;
      results := (lat, status, code) :: !results;
      Mutex.unlock m
    in
    let code_of_body body =
      match Exec.Jsonl.parse body with
      | Ok j ->
          Option.value ~default:"?"
            (Option.bind (Exec.Jsonl.member "code" j) Exec.Jsonl.to_str)
      | Error _ -> "?"
    in
    let cache_of_body body =
      match Exec.Jsonl.parse body with
      | Ok j -> Option.bind (Exec.Jsonl.member "cache" j) Exec.Jsonl.to_str
      | Error _ -> None
    in
    let hot_body =
      {|{"kernel":"gsum","seed":1,"max_cycles":200000,"deadline_ms":30000}|}
    in
    let cold_body i =
      Fmt.str
        {|{"kernel":"gsum","seed":%d,"max_cycles":200000,"deadline_ms":30000}|}
        (1000 + i)
    in
    let poison_body = {|{"kernel":"no-such-kernel"}|} in
    let deadline0_body =
      {|{"kernel":"gsum","seed":1,"max_cycles":200000,"deadline_ms":0}|}
    in
    let cache_hits = ref 0 and cache_misses = ref 0 in
    let client c =
      for i = 0 to requests - 1 do
        if not (Exec.Interrupt.triggered ()) then begin
          let idx = (c * requests) + i in
          let body =
            match idx mod 8 with
            | 6 -> poison_body
            | 7 -> deadline0_body
            | 3 -> cold_body idx
            | _ -> hot_body
          in
          let t0 = Unix.gettimeofday () in
          match
            serve_post ~port ~path:"/v1/submit"
              ~headers:[ ("X-Tenant", Fmt.str "client-%d" (c mod 2)) ]
              ~timeout_s:60.0 body
          with
          | Ok (status, _, rbody) ->
              let lat = (Unix.gettimeofday () -. t0) *. 1000.0 in
              (match cache_of_body rbody with
              | Some "hit" ->
                  Mutex.lock m;
                  incr cache_hits;
                  Mutex.unlock m
              | Some "miss" ->
                  Mutex.lock m;
                  incr cache_misses;
                  Mutex.unlock m
              | _ -> ());
              record lat status (code_of_body rbody)
          | Error _ ->
              record ((Unix.gettimeofday () -. t0) *. 1000.0) 0 "transport"
        end
      done
    in
    (* Protocol chaos: each round must end with the connection cleanly
       refused or timed out server-side, never a daemon crash. *)
    let chaos_client _c =
      let rounds = 3 in
      for _r = 1 to rounds do
        if not (Exec.Interrupt.triggered ()) then begin
          (* slow-loris: partial headers, then silence past the 1 s
             header timeout. *)
          (let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
           (try
              Unix.connect fd
                (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              let partial = "POST /v1/submit HTTP/1.1\r\nCon" in
              ignore
                (Unix.write_substring fd partial 0 (String.length partial));
              Thread.delay 1.4;
              ignore
                (Serve.Http.read_response
                   ~deadline:(Unix.gettimeofday () +. 5.0)
                   fd)
            with Unix.Unix_error _ -> ());
           try Unix.close fd with Unix.Unix_error _ -> ());
          (* oversized payload: honest Content-Length over the cap. *)
          (let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
           (try
              Unix.connect fd
                (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              let hdr =
                "POST /v1/submit HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
              in
              ignore (Unix.write_substring fd hdr 0 (String.length hdr));
              ignore
                (Serve.Http.read_response
                   ~deadline:(Unix.gettimeofday () +. 5.0)
                   fd)
            with Unix.Unix_error _ -> ());
           try Unix.close fd with Unix.Unix_error _ -> ());
          (* mid-request disconnect: half a body, then hang up. *)
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          (try
             Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
             let hdr =
               "POST /v1/submit HTTP/1.1\r\nContent-Length: 400\r\n\r\n{\"ker"
             in
             ignore (Unix.write_substring fd hdr 0 (String.length hdr))
           with Unix.Unix_error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
      done
    in
    (* Worker chaos: SIGKILL live workers once the daemon is warm. *)
    let killer () =
      if kill_workers > 0 then begin
        Thread.delay 0.6;
        match serve_get ~port ~path:"/v1/stats" ~timeout_s:10.0 with
        | Ok (_, _, body) -> (
            match Exec.Jsonl.parse body with
            | Ok j ->
                let pids =
                  Option.bind (Exec.Jsonl.member "workers" j) (fun w ->
                      Option.bind (Exec.Jsonl.member "pids" w)
                        Exec.Jsonl.to_list)
                  |> Option.value ~default:[]
                  |> List.filter_map Exec.Jsonl.to_int
                in
                List.iteri
                  (fun i p ->
                    if i < kill_workers then begin
                      Fmt.pr "bench-serve: SIGKILL worker %d@." p;
                      try Unix.kill p Sys.sigkill
                      with Unix.Unix_error _ -> ()
                    end)
                  pids;
                (* Probe the wounded pool: cold submissions (cache can't
                   absorb them) must either classify worker-lost on the
                   dead slot or complete on a healthy one — both count
                   as "only the affected request pays". *)
                for i = 0 to kill_workers do
                  let t0 = Unix.gettimeofday () in
                  match
                    serve_post ~port ~path:"/v1/submit"
                      ~headers:[ ("X-Tenant", "killer") ] ~timeout_s:60.0
                      (cold_body (900_000 + i))
                  with
                  | Ok (status, _, rbody) ->
                      record
                        ((Unix.gettimeofday () -. t0) *. 1000.0)
                        status (code_of_body rbody)
                  | Error _ ->
                      record
                        ((Unix.gettimeofday () -. t0) *. 1000.0)
                        0 "transport"
                done
            | Error _ -> ())
        | Error _ -> ()
      end
    in
    let threads =
      List.init clients (fun c -> Thread.create client c)
      @ List.init chaos_clients (fun c -> Thread.create chaos_client c)
      @ [ Thread.create killer () ]
    in
    List.iter Thread.join threads;
    let interrupted = Exec.Interrupt.triggered () in
    (* Journal-fault leg: read the injection counters while the daemon
       is still up. *)
    let journal_errors, journal_degraded =
      if not faultfs then (0, false)
      else
        match serve_get ~port ~path:"/v1/stats" ~timeout_s:10.0 with
        | Ok (_, _, body) -> (
            match Exec.Jsonl.parse body with
            | Ok j ->
                ( Option.value ~default:0
                    (Option.bind
                       (Exec.Jsonl.member "journal_errors" j)
                       Exec.Jsonl.to_int),
                  Option.value ~default:false
                    (Option.bind
                       (Exec.Jsonl.member "journal_degraded" j)
                       Exec.Jsonl.to_bool) )
            | Error _ -> (0, false))
        | Error _ -> (0, false)
    in
    (* High-concurrency scale leg: per-tier latency under load.  Every
       request uses a fresh seed, so the result cache absorbs nothing
       and each 200 reports the tier that actually ran it; the circuit
       digest is seed-independent, so after one warm-up on the worker
       tier the compiled image serves every batch-tier run. *)
    let scale =
      if connections <= 0 || Exec.Interrupt.triggered () then None
      else begin
        let seedc = Atomic.make 5_000_000 in
        let fresh_body ~deadline_ms =
          Fmt.str
            {|{"kernel":"gsum","seed":%d,"max_cycles":200000,"deadline_ms":%d}|}
            (Atomic.fetch_and_add seedc 1) deadline_ms
        in
        (match
           serve_post ~port ~path:"/v1/submit"
             ~headers:[ ("X-Tenant", "scale-warm") ] ~timeout_s:60.0
             (fresh_body ~deadline_ms:30_000)
         with
        | Ok (200, _, _) -> ()
        | Ok (st, _, _) -> Fmt.pr "bench-serve: scale warm-up returned %d@." st
        | Error _ -> Fmt.pr "bench-serve: scale warm-up transport error@.");
        let sm = Mutex.create () in
        let tiers : (string * float * int) list ref = ref [] in
        let tier_of_body body =
          match Exec.Jsonl.parse body with
          | Ok j ->
              Option.value ~default:"?"
                (Option.bind (Exec.Jsonl.member "tier" j) Exec.Jsonl.to_str)
          | Error _ -> "?"
        in
        let stop_at = Unix.gettimeofday () +. duration in
        (* Even connections hammer the batch tier (short deadline), odd
           ones the worker tier (long deadline): same window, same
           circuit, same fuel — only the tier differs. *)
        let conn_thread c =
          let deadline_ms = if c mod 2 = 0 then 10_000 else 30_000 in
          while
            Unix.gettimeofday () < stop_at
            && not (Exec.Interrupt.triggered ())
          do
            let t0 = Unix.gettimeofday () in
            match
              serve_post ~port ~path:"/v1/submit"
                ~headers:[ ("X-Tenant", Fmt.str "scale-%d" c) ]
                ~timeout_s:60.0
                (fresh_body ~deadline_ms)
            with
            | Ok (status, _, rbody) ->
                let lat = (Unix.gettimeofday () -. t0) *. 1000.0 in
                Mutex.lock sm;
                tiers := (tier_of_body rbody, lat, status) :: !tiers;
                Mutex.unlock sm
            | Error _ ->
                Mutex.lock sm;
                tiers := ("transport", 0.0, 0) :: !tiers;
                Mutex.unlock sm
          done
        in
        let threads =
          List.init connections (fun c -> Thread.create conn_thread c)
        in
        List.iter Thread.join threads;
        let all = !tiers in
        let lats tier =
          List.filter_map
            (fun (t, l, s) -> if t = tier && s = 200 then Some l else None)
            all
          |> Array.of_list
        in
        let blats = lats "batch" and wlats = lats "worker" in
        Array.sort compare blats;
        Array.sort compare wlats;
        Some (connections, duration, blats, wlats)
      end
    in
    (* Image-cache counters, read while the daemon is still up. *)
    let image_hits, image_misses, image_entries =
      match serve_get ~port ~path:"/v1/stats" ~timeout_s:10.0 with
      | Ok (_, _, body) -> (
          match Exec.Jsonl.parse body with
          | Ok j ->
              let ic = Exec.Jsonl.member "image_cache" j in
              let f k =
                Option.value ~default:0
                  (Option.bind
                     (Option.bind ic (Exec.Jsonl.member k))
                     Exec.Jsonl.to_int)
              in
              (f "hits", f "misses", f "entries")
          | Error _ -> (0, 0, 0))
      | Error _ -> (0, 0, 0)
    in
    let image_hit_rate =
      if image_hits + image_misses = 0 then 0.0
      else float_of_int image_hits /. float_of_int (image_hits + image_misses)
    in
    (* Graceful shutdown + drain audit. *)
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let server_exit, child_tail = reap_serve pid child_out in
    let all = !results in
    let total = List.length all in
    let lats =
      List.filter_map
        (fun (l, s, _) -> if s > 0 then Some l else None)
        all
      |> Array.of_list
    in
    Array.sort compare lats;
    let p50 = percentile lats 50 and p99 = percentile lats 99 in
    let count pred = List.length (List.filter pred all) in
    let n_ok = count (fun (_, s, _) -> s = 200) in
    let n_shed = count (fun (_, s, _) -> s = 429) in
    let n_lost = count (fun (_, _, c) -> c = "worker-lost" || c = "worker-killed") in
    let n_400 = count (fun (_, s, _) -> s = 400) in
    let n_504 = count (fun (_, s, _) -> s = 504) in
    let n_journal_lost = count (fun (_, _, c) -> c = "journal-lost") in
    let shed_rate = if total = 0 then 0.0 else float_of_int n_shed /. float_of_int total in
    let hit_rate =
      let h = !cache_hits and ms = !cache_misses in
      if h + ms = 0 then 0.0 else float_of_int h /. float_of_int (h + ms)
    in
    let drained k = Option.value ~default:(-1) (drain_field child_tail k) in
    let conns_left = drained "conns_left"
    and workers_alive = drained "workers_alive"
    and leaked_fds = drained "leaked_fds" in
    let open Exec.Jsonl in
    let report =
      Obj
        [
          ("schema_version", Int Exec.Journal.schema_version);
          ("bench", String "serve");
          ("clients", Int clients);
          ("requests_per_client", Int requests);
          ("chaos_clients", Int chaos_clients);
          ("killed_workers", Int kill_workers);
          ("total", Int total);
          ("ok", Int n_ok);
          ("bad_request", Int n_400);
          ("deadline_exceeded", Int n_504);
          ("worker_lost", Int n_lost);
          ("shed", Int n_shed);
          ("p50_ms", Float p50);
          ("p99_ms", Float p99);
          ("shed_rate", Float shed_rate);
          ("cache_hit_rate", Float hit_rate);
          ( "image_cache",
            Obj
              [
                ("hits", Int image_hits);
                ("misses", Int image_misses);
                ("entries", Int image_entries);
                ("hit_rate", Float image_hit_rate);
              ] );
          ( "scale",
            match scale with
            | None -> Obj [ ("enabled", Bool false) ]
            | Some (conns, dur, blats, wlats) ->
                let tier_obj lats =
                  Obj
                    [
                      ("requests", Int (Array.length lats));
                      ("p50_ms", Float (percentile lats 50));
                      ("p99_ms", Float (percentile lats 99));
                      ( "throughput_rps",
                        Float (float_of_int (Array.length lats) /. dur) );
                    ]
                in
                Obj
                  [
                    ("enabled", Bool true);
                    ("connections", Int conns);
                    ("duration_s", Float dur);
                    ("batch", tier_obj blats);
                    ("worker", tier_obj wlats);
                    ("image_hit_rate", Float image_hit_rate);
                  ] );
          ("interrupted", Bool interrupted);
          ( "faultfs",
            Obj
              [
                ("enabled", Bool faultfs);
                ("journal_errors", Int journal_errors);
                ("journal_lost_responses", Int n_journal_lost);
                ("journal_degraded", Bool journal_degraded);
              ] );
          ( "drain",
            Obj
              [
                ("server_exit", Int server_exit);
                ("conns_left", Int conns_left);
                ("workers_alive", Int workers_alive);
                ("leaked_fds", Int leaked_fds);
              ] );
        ]
    in
    Exec.Journal.write_atomic out (fun oc ->
        output_string oc (to_string report);
        output_string oc "\n");
    Fmt.pr
      "bench-serve: %d requests — %d ok, %d bad-request, %d deadline, %d \
       worker-lost, %d shed@."
      total n_ok n_400 n_504 n_lost n_shed;
    Fmt.pr "bench-serve: p50 %.1f ms, p99 %.1f ms, shed rate %.2f, cache hit \
            rate %.2f@."
      p50 p99 shed_rate hit_rate;
    (match scale with
    | None -> ()
    | Some (conns, dur, blats, wlats) ->
        Fmt.pr
          "bench-serve: scale %d conns x %.1fs — batch %d reqs p50 %.1f ms \
           p99 %.1f ms; worker %d reqs p50 %.1f ms p99 %.1f ms; image hit \
           rate %.2f@."
          conns dur (Array.length blats) (percentile blats 50)
          (percentile blats 99) (Array.length wlats) (percentile wlats 50)
          (percentile wlats 99) image_hit_rate);
    Fmt.pr "bench-serve: drain server_exit=%d conns_left=%d workers_alive=%d \
            leaked_fds=%d@."
      server_exit conns_left workers_alive leaked_fds;
    Fmt.pr "wrote %s@." out;
    if interrupted then begin
      Fmt.pr "bench-serve: interrupted — partial report written@.";
      exit Exec.Interrupt.exit_code
    end;
    (* The smoke gate. *)
    let fail = ref [] in
    let gate cond msg = if not cond then fail := msg :: !fail in
    gate (server_exit = 0) "server exited nonzero";
    gate (workers_alive = 0) "workers survived the drain";
    gate (conns_left = 0) "connections survived the drain";
    gate (leaked_fds <= 0) "fds leaked across the daemon lifetime";
    gate (n_ok > 0) "no successful requests";
    gate (hit_rate > 0.0) "cache hit rate was zero";
    gate (n_400 > 0) "malformed submissions never classified bad-request";
    gate (n_504 > 0) "deadline-0 submissions never classified deadline-exceeded";
    if kill_workers > 0 then
      gate
        (n_lost > 0 || n_ok > clients)
        "worker kill neither classified worker-lost nor survived";
    (match scale with
    | None -> ()
    | Some (_, _, blats, wlats) ->
        gate (Array.length blats > 0) "scale leg: no batch-tier successes";
        gate (Array.length wlats > 0) "scale leg: no worker-tier successes";
        gate
          (Array.length blats = 0
          || Array.length wlats = 0
          || percentile blats 50 < percentile wlats 50)
          "scale leg: batch-tier p50 not below worker-tier p50";
        gate (image_hit_rate > 0.0) "scale leg: image-cache hit rate was zero");
    if faultfs then begin
      Fmt.pr
        "bench-serve: faultfs journal_errors=%d journal-lost=%d degraded=%b@."
        journal_errors n_journal_lost journal_degraded;
      gate (journal_errors >= 1) "faultfs injected no journal append failure";
      gate
        (n_journal_lost > 0 || journal_degraded)
        "journal faults neither classified journal-lost nor degraded";
      match faultfs_journal with
      | Some j when Sys.file_exists j -> Sys.remove j
      | _ -> ()
    end;
    match !fail with
    | [] -> Fmt.pr "bench-serve: smoke gate ok@."
    | msgs ->
        List.iter (fun s -> Fmt.pr "bench-serve: GATE FAILED: %s@." s) msgs;
        exit 1
  in
  Cmd.v (Cmd.info "bench-serve" ~doc)
    Term.(
      const run $ clients_arg $ requests_arg $ kill_workers_arg
      $ chaos_clients_arg $ out_arg $ bench_workers_arg $ bench_faultfs_arg
      $ connections_arg $ duration_arg)

(* ------------------------------------------------------------------ *)
(* faultfs: exhaustive I/O fault-schedule exploration                  *)

let faultfs_cmd =
  let doc =
    "Deterministic I/O fault-schedule exploration of every durability \
     path: each scenario (journal append, atomic replace, shard merge, \
     supervised campaign) first runs fault-free to count its I/O ops, \
     then re-runs once per (op, fault class) pair — EIO, ENOSPC, short \
     write, EINTR, crash-after-op — and is checked for recovery-invariant \
     violations, stale $(b,.tmp.) residue and leaked fds.  A failing run \
     is fully named by (scenario, op, fault) and replayed with \
     $(b,--scenario), $(b,--op) and $(b,--fault).  Exits nonzero on any \
     violation."
  in
  let scenario_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Explore only $(docv) (journal|atomic|merge|campaign).")
  in
  let root_arg =
    Arg.(
      value
      & opt string "_build/faultfs"
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Scratch directory for scenario state (recreated per run).")
  in
  let faultfs_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the per-injection-point verdict table to $(docv) \
                as JSONL (one row per (scenario, op, fault) run).")
  in
  let op_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "op" ] ~docv:"K"
          ~doc:"Replay only injection point $(docv) (1-based op number).")
  in
  let fault_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"FAULT"
          ~doc:"Restrict to one fault class \
                (eio|enospc|short-write|eintr|crash).")
  in
  let run scenario root out op fault =
    let scenarios =
      match scenario with
      | None -> Exec.Faultfs.builtin ()
      | Some name -> (
          match Exec.Faultfs.find name with
          | Some s -> [ s ]
          | None ->
              Fmt.epr "crush faultfs: unknown scenario %s@." name;
              exit 2)
    in
    let faults =
      match fault with
      | None -> None
      | Some f -> (
          match Exec.Fio.fault_of_string f with
          | Ok f -> Some [ f ]
          | Error msg ->
              Fmt.epr "crush faultfs: %s@." msg;
              exit 2)
    in
    let rows, runs, bad = faultfs_explore ?faults ?only_op:op ~root scenarios in
    (match out with
    | None -> ()
    | Some path ->
        Exec.Journal.write_atomic path (fun oc ->
            List.iter
              (fun row ->
                output_string oc (Exec.Jsonl.to_string row);
                output_string oc "\n")
              rows);
        Fmt.pr "wrote %s@." path);
    if bad = 0 then
      Fmt.pr "faultfs: %d scenarios x every (op, fault) — %d runs, 0 \
              violations@."
        (List.length scenarios) runs
    else begin
      Fmt.pr "faultfs: %d violation(s) across %d runs@." bad runs;
      exit 1
    end
  in
  Cmd.v (Cmd.info "faultfs" ~doc)
    Term.(
      const run $ scenario_arg $ root_arg $ faultfs_out_arg $ op_arg
      $ fault_arg)

let main =
  let doc = "CRUSH: credit-based functional-unit sharing for dataflow circuits" in
  Cmd.group
    (Cmd.info "crush" ~version:"1.0.0" ~doc)
    [
      list_cmd; compile_cmd; analyze_cmd; run_cmd; stats_cmd; trace_cmd;
      profile_cmd; chaos_cmd; sanitize_cmd; reduce_cmd; serve_cmd;
      bench_serve_cmd; faultfs_cmd;
    ]

let usage_line = "usage: crush COMMAND [OPTION]…  (try crush --help)"

let () =
  (* Worker_crash outcomes carry the backtrace of the escaping
     exception; without this it is empty in production builds. *)
  Printexc.record_backtrace true;
  (* Hidden worker mode: [crush __worker --kind chaos --shard N ...] is
     how the shard supervisor re-execs this binary.  Dispatched before
     cmdliner ever sees the argv — it is an internal protocol, not a
     subcommand. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "__worker" then begin
    let opts = Exec.Supervisor.worker_opts_of_argv Sys.argv in
    match opts.Exec.Supervisor.kind with
    | "chaos" ->
        Exec.Supervisor.worker_main ~opts ~run:(chaos_worker_run opts) ()
    | "serve" ->
        Exec.Supervisor.worker_main ~opts ~run:(Serve.Job.worker_run opts) ()
    | k ->
        Fmt.epr "crush __worker: unknown kind %s@." k;
        exit 2
  end
  else
    (* Exit-code contract (pinned by the test suite): 0 success, 2 for
       CLI usage errors (unknown flag / missing argument / unknown
       subcommand or benchmark name, with a one-line usage pointer), 125
       for an escaped exception; 10..17 are the per-class failure codes
       the subcommands exit with themselves ({!Exec.Outcome.exit_code}),
       17 being a lost or preemptively killed worker process; 18
       ({!Exec.Interrupt.exit_code}) is a SIGTERM/SIGINT-interrupted but
       resumable sweep (rerun with the same --journal to continue). *)
    match Cmd.eval_value main with
    | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
    | Error (`Parse | `Term) ->
        (* cmdliner already printed the specific complaint on stderr. *)
        prerr_endline usage_line;
        exit 2
    | Error `Exn -> exit 125
