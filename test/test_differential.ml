(** Differential oracle: the frozen pre-rewrite engine and sanitizer
    ([Oracle_engine], [Oracle_sanitizer] — verbatim copies of the
    graph-of-records implementation) against the data-oriented rewrite
    in [Sim].  The rewrite's contract is bit-identity, not mere
    functional equivalence: cycle counts, transfer counts, exit values,
    perturbation counters, the full observability event stream and the
    sanitizer verdicts (invariant, cycle, unit, detail) must all match
    the oracle on every kernel, technique, chaos seed, paper example,
    fault injection and random circuit below.  Every unperturbed case
    runs the rewrite twice, once by {!Sim.Engine.run} and once by
    {!Sim.Engine.run_image} over a compiled image (the path the serve
    tiers take), and holds both to the oracle. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Event-stream digests.  Both engines emit structurally identical
   event types; each event folds into a running order-sensitive hash,
   so two streams digest equal iff they agree event-for-event without
   either side materializing (or allocating strings for) the whole
   stream. *)

type digest = { mutable h : int; mutable n : int }

let fresh_digest () = { h = 0; n = 0 }

let fold d key =
  d.h <- ((d.h * 486187739) + Hashtbl.hash key) land max_int;
  d.n <- d.n + 1

let oracle_sink d : Oracle_engine.sink = function
  | Oracle_engine.E_fire { cycle; uid } -> fold d (0, cycle, uid, 0)
  | Oracle_engine.E_transfer { cycle; cid; data } ->
      fold d (1, cycle, cid, data)
  | Oracle_engine.E_stall { cycle; cid; reason } ->
      fold d (2, cycle, cid, Oracle_engine.string_of_stall_reason reason)
  | Oracle_engine.E_credit { cycle; uid; delta; count } ->
      fold d (3, cycle, uid, delta, count)
  | Oracle_engine.E_grant { cycle; uid; port } -> fold d (4, cycle, uid, port)

let rewrite_sink d : Sim.Engine.sink = function
  | Sim.Engine.E_fire { cycle; uid } -> fold d (0, cycle, uid, 0)
  | Sim.Engine.E_transfer { cycle; cid; data } -> fold d (1, cycle, cid, data)
  | Sim.Engine.E_stall { cycle; cid; reason } ->
      fold d (2, cycle, cid, Sim.Engine.string_of_stall_reason reason)
  | Sim.Engine.E_credit { cycle; uid; delta; count } ->
      fold d (3, cycle, uid, delta, count)
  | Sim.Engine.E_grant { cycle; uid; port } -> fold d (4, cycle, uid, port)

(* ------------------------------------------------------------------ *)
(* The differential runner: one graph, two engines, fresh identically
   filled memories, attached event sinks; every observable of the two
   runs must agree. *)

let status_of_oracle : Oracle_engine.status -> Sim.Engine.status = function
  | Oracle_engine.Completed c -> Sim.Engine.Completed c
  | Oracle_engine.Deadlock c -> Sim.Engine.Deadlock c
  | Oracle_engine.Out_of_fuel c -> Sim.Engine.Out_of_fuel c

let check_stats name (o : Oracle_engine.stats) (r : Sim.Engine.stats) =
  checkb
    (name ^ ": status")
    (status_of_oracle o.Oracle_engine.status = r.Sim.Engine.status);
  checki (name ^ ": cycles") o.Oracle_engine.cycles r.Sim.Engine.cycles;
  checki (name ^ ": transfers") o.Oracle_engine.transfers
    r.Sim.Engine.transfers;
  checkb
    (name ^ ": exit values")
    (o.Oracle_engine.exit_values = r.Sim.Engine.exit_values);
  checkb
    (name ^ ": perturbation counters")
    (o.Oracle_engine.perturbations = r.Sim.Engine.perturbations)

(** Run [g] on the oracle and on the rewrite, the latter by
    {!Sim.Engine.run} and, when unperturbed, also by
    {!Sim.Engine.run_image}.  Returns the oracle's memory and one memory
    per rewrite run. *)
let diff_run ?(name = "circuit") ?chaos ?(max_cycles = 2_000_000)
    ?(fill = fun (_ : Sim.Memory.t) -> ()) g =
  let fresh () =
    let m = Sim.Memory.of_graph g in
    fill m;
    m
  in
  let mem_o = fresh () and do_ = fresh_digest () in
  let out_o =
    Oracle_engine.run ~max_cycles ?chaos ~memory:mem_o ~sink:(oracle_sink do_)
      g
  in
  let check path run =
    let memory = fresh () and dr = fresh_digest () in
    let out_r = run ~memory ~sink:(rewrite_sink dr) in
    let name = name ^ path in
    check_stats name out_o.Oracle_engine.stats out_r.Sim.Engine.stats;
    checki (name ^ ": event count") do_.n dr.n;
    checki (name ^ ": event digest") do_.h dr.h;
    memory
  in
  let mem_r =
    check "" (fun ~memory ~sink ->
        Sim.Engine.run ~max_cycles ?chaos ~memory ~sink g)
  in
  let mem_i =
    match chaos with
    | Some _ -> []
    | None ->
        let image = Sim.Engine.image g in
        [
          check "/image" (fun ~memory ~sink ->
              Sim.Engine.run_image ~max_cycles ~memory ~sink image);
        ]
  in
  (mem_o, mem_r :: mem_i)

(* ------------------------------------------------------------------ *)
(* Kernels: every benchmark x every technique, then every benchmark
   under three chaos seeds.  The sharing passes mutate the graph in
   place; simulation does not, so one transformed graph feeds both
   engines. *)

let techniques =
  [
    ("naive", fun (_ : Minic.Codegen.compiled) -> ());
    ( "crush",
      fun c ->
        ignore
          (Crush.Share.crush c.Minic.Codegen.graph
             ~critical_loops:c.Minic.Codegen.critical_loops) );
    ( "inorder",
      fun c ->
        ignore
          (Crush.Inorder.share c.Minic.Codegen.graph
             ~critical_loops:c.Minic.Codegen.critical_loops
             ~conditional_bbs:c.Minic.Codegen.conditional_bbs) );
  ]

let kernel_diff (bench : Kernels.Registry.bench) transform ?chaos_seed () =
  let c = compile bench.Kernels.Registry.source in
  transform c;
  let g = c.Minic.Codegen.graph in
  let inputs = Kernels.Registry.fresh_inputs ~seed:42 bench in
  let fill m =
    Hashtbl.iter (fun arr data -> Sim.Memory.set_floats m arr data) inputs
  in
  let chaos = Option.map (fun s -> Sim.Chaos.default ~seed:s) chaos_seed in
  let name =
    Fmt.str "%s%a" bench.Kernels.Registry.name
      Fmt.(option (fmt "/seed%d"))
      chaos_seed
  in
  let mem_o, mem_rs = diff_run ~name ?chaos ~fill g in
  (* Result arrays must match float-for-float, not just within the
     harness tolerance. *)
  List.iter
    (fun mem_r ->
      List.iter
        (fun (arr, _) ->
          checkb
            (name ^ ": memory " ^ arr)
            (Sim.Memory.get_floats mem_o arr = Sim.Memory.get_floats mem_r arr))
        bench.Kernels.Registry.arrays)
    mem_rs

let kernel_cases =
  List.concat_map
    (fun (bench : Kernels.Registry.bench) ->
      List.map
        (fun (tname, transform) ->
          Alcotest.test_case
            (Fmt.str "%s/%s" bench.Kernels.Registry.name tname)
            `Slow
            (kernel_diff bench transform))
        techniques)
    Kernels.Registry.all

let kernel_chaos_cases =
  List.concat_map
    (fun (bench : Kernels.Registry.bench) ->
      List.map
        (fun seed ->
          let _, crush = List.nth techniques 1 in
          Alcotest.test_case
            (Fmt.str "%s/crush/chaos%d" bench.Kernels.Registry.name seed)
            `Slow
            (kernel_diff bench crush ~chaos_seed:seed))
        [ 1; 2; 3 ])
    Kernels.Registry.all

(* ------------------------------------------------------------------ *)
(* Paper examples, plain and under chaos. *)

let test_paper_examples () =
  let fig1 = (Crush.Paper_examples.fig1 ()).Crush.Paper_examples.graph in
  ignore (diff_run ~name:"fig1" fig1);
  ignore
    (diff_run ~name:"fig1/chaos" ~chaos:(Sim.Chaos.default ~seed:7) fig1);
  let fig5 = (Crush.Paper_examples.fig5 ()).Crush.Paper_examples.graph in
  ignore (diff_run ~name:"fig5" fig5)

(* ------------------------------------------------------------------ *)
(* Fault injections: both engines must wedge at the same cycle, and
   both sanitizers must convict the same invariant on the same unit at
   the same cycle with the same detail string. *)

let oracle_violation ?(max_cycles = 100_000) g =
  let memory = Sim.Memory.of_graph g in
  match
    Oracle_engine.run ~max_cycles ~memory
      ~monitor:(Oracle_sanitizer.monitor ())
      g
  with
  | (_ : Oracle_engine.outcome) -> None
  | exception Oracle_sanitizer.Violation v -> Some v

(* The rewrite's verdict by [Sim.Engine.run] and by [run_image]. *)
let rewrite_violations ?(max_cycles = 100_000) g =
  let verdict run =
    match
      run ~memory:(Sim.Memory.of_graph g) ~monitor:(Sim.Sanitizer.monitor ())
    with
    | (_ : Sim.Engine.outcome) -> None
    | exception Sim.Sanitizer.Violation v -> Some v
  in
  let image = Sim.Engine.image g in
  [
    ("", verdict (fun ~memory ~monitor ->
         Sim.Engine.run ~max_cycles ~memory ~monitor g));
    ("/image", verdict (fun ~memory ~monitor ->
         Sim.Engine.run_image ~max_cycles ~memory ~monitor image));
  ]

let test_fault fault () =
  let name = Crush.Faults.describe fault in
  let g = Crush.Faults.inject (Crush.Paper_examples.fig1 ()) fault in
  (* Unmonitored: identical deadlock. *)
  ignore (diff_run ~name ~max_cycles:100_000 g);
  (* Monitored: identical verdict. *)
  let ov =
    match oracle_violation g with
    | Some ov -> ov
    | None -> Alcotest.failf "%s: oracle sanitizer stayed silent" name
  in
  List.iter
    (fun (path, rv) ->
      match rv with
      | Some rv ->
          Alcotest.(check string)
            (name ^ path ^ ": verdict")
            (Fmt.str "%a" Oracle_sanitizer.pp_violation ov)
            (Fmt.str "%a" Sim.Sanitizer.pp_violation rv)
      | None ->
          Alcotest.failf "%s%s: rewrite sanitizer stayed silent" name path)
    (rewrite_violations g)

(* Clean circuits: both sanitizers must stay silent (and not perturb
   the run) on a CRUSH-shared kernel. *)
let test_sanitizer_silence () =
  let bench = Kernels.Registry.find "syr2k" in
  let c = compile bench.Kernels.Registry.source in
  ignore
    (Crush.Share.crush c.Minic.Codegen.graph
       ~critical_loops:c.Minic.Codegen.critical_loops);
  let g = c.Minic.Codegen.graph in
  let inputs = Kernels.Registry.fresh_inputs ~seed:42 bench in
  let fill m =
    Hashtbl.iter (fun arr data -> Sim.Memory.set_floats m arr data) inputs
  in
  let fresh () =
    let m = Sim.Memory.of_graph g in
    fill m;
    m
  in
  let out_o =
    Oracle_engine.run ~memory:(fresh ()) ~monitor:(Oracle_sanitizer.monitor ())
      g
  in
  let out_r =
    Sim.Engine.run ~memory:(fresh ()) ~monitor:(Sim.Sanitizer.monitor ()) g
  in
  let out_i =
    Sim.Engine.run_image ~memory:(fresh ())
      ~monitor:(Sim.Sanitizer.monitor ())
      (Sim.Engine.image g)
  in
  check_stats "syr2k/sanitized" out_o.Oracle_engine.stats
    out_r.Sim.Engine.stats;
  check_stats "syr2k/sanitized/image" out_o.Oracle_engine.stats
    out_i.Sim.Engine.stats

(* ------------------------------------------------------------------ *)
(* Probe self-consistency: the fast cycle-existence probe was rewritten
   on flat arrays; on every settled state of a wedging circuit it must
   agree with the full SCC-partitioning probe it summarizes.  One
   scratch serves the whole run, as in the sanitizer, so a probe that
   leaves stale state behind shows up as a disagreement. *)

let test_probe_consistency () =
  List.iter
    (fun fault ->
      let g = Crush.Faults.inject (Crush.Paper_examples.fig1 ()) fault in
      let checked = ref 0 in
      let scratch = ref None in
      let monitor sim ~cycle = function
        | Sim.Engine.After_settle ->
            let ps =
              match !scratch with
              | Some ps -> ps
              | None ->
                  let ps = Sim.Forensics.probe_scratch sim in
                  scratch := Some ps;
                  ps
            in
            let stalled = Array.of_list (Sim.Engine.stalled_channels sim) in
            let fast =
              Sim.Forensics.probe_core_exists ps ~stalled
                ~n_stalled:(Array.length stalled)
            in
            let full =
              (Sim.Forensics.probe sim ~cycle).Sim.Forensics.cores <> []
            in
            if fast <> full then
              Alcotest.failf "%s: probe_core_exists %b but probe cores %b"
                (Crush.Faults.describe fault)
                fast full;
            incr checked
        | Sim.Engine.After_step -> ()
      in
      ignore
        (Sim.Engine.run ~max_cycles:3_000 ~memory:(Sim.Memory.of_graph g)
           ~monitor g);
      checkb "probed" (!checked > 0))
    Crush.Faults.all

(* ------------------------------------------------------------------ *)
(* Random circuits: generated kernels (plain and under a random chaos
   seed) and random builder circuits through the buffer-chain shapes.
   diff_run raises on any divergence, which QCheck2 reports with the
   shrunk counterexample. *)

let prop_random_kernels =
  qtest ~count:12 "random kernels: oracle = rewrite"
    Test_properties.gen_kernel_ast (fun kernel ->
      let src = Minic.Print.to_string kernel in
      let c = compile src in
      let rng = Kernels.Data.create (Hashtbl.hash src) in
      let data = Kernels.Data.signed_array rng 10 in
      let fill m = Sim.Memory.set_floats m "x" data in
      ignore (diff_run ~name:"random kernel" ~fill c.Minic.Codegen.graph);
      true)

let prop_random_kernels_chaos =
  qtest ~count:8 "random kernels under chaos: oracle = rewrite"
    ~print:(fun (kernel, seed) ->
      Fmt.str "chaos seed %d on:@.%s" seed (Minic.Print.to_string kernel))
    QCheck2.Gen.(pair Test_properties.gen_kernel_ast (int_range 0 1_000_000))
    (fun (kernel, seed) ->
      let src = Minic.Print.to_string kernel in
      let c = compile src in
      ignore
        (Crush.Share.crush c.Minic.Codegen.graph
           ~critical_loops:c.Minic.Codegen.critical_loops);
      let rng = Kernels.Data.create (Hashtbl.hash src) in
      let data = Kernels.Data.signed_array rng 10 in
      let fill m = Sim.Memory.set_floats m "x" data in
      ignore
        (diff_run ~name:"random kernel"
           ~chaos:(Sim.Chaos.default ~seed)
           ~fill c.Minic.Codegen.graph);
      true)

let prop_random_builder =
  qtest ~count:25 "random builder circuits: oracle = rewrite"
    Test_properties.gen_buffer_chain (fun chain ->
      let n = 10 in
      let g =
        int_stream ~n (fun b i ->
            Dataflow.Builder.declare_memory b "m" n;
            let w =
              List.fold_left
                (fun w (transparent, slots) ->
                  if transparent then Dataflow.Builder.slack b w slots ~loop:0
                  else Dataflow.Builder.reg b w ~slots:(max 2 slots) ~loop:0)
                i chain
            in
            ignore (Dataflow.Builder.store b ~memory:"m" w w ~loop:0))
      in
      ignore (diff_run ~name:"buffer chain" g);
      true)

(* ------------------------------------------------------------------ *)

let suite =
  kernel_cases @ kernel_chaos_cases
  @ [
      Alcotest.test_case "paper examples" `Quick test_paper_examples;
      Alcotest.test_case "sanitizers silent on clean circuit" `Slow
        test_sanitizer_silence;
      Alcotest.test_case "probe fast path = full probe" `Quick
        test_probe_consistency;
    ]
  @ List.map
      (fun fault ->
        Alcotest.test_case
          (Fmt.str "fault: %s" (Crush.Faults.describe fault))
          `Quick (test_fault fault))
      Crush.Faults.all
  @ [ prop_random_kernels; prop_random_kernels_chaos; prop_random_builder ]
