(** Elastic-protocol sanitizers + ddmin reducer.

    The three Eq. 1 fault circuits must be convicted by the sanitizers
    at a pinned invariant strictly earlier than quiescence-based
    deadlock detection; clean circuits (paper examples and CRUSH-shared
    kernels, chaotic or not) must stay silent; the reducer must shrink
    each fault to a handful of units that still trip the same
    invariant; and the committed reproducers under [examples/repros/]
    must replay to their recorded invariant and cycle. *)

open Helpers

let fault_circuit f = Crush.Faults.inject (Crush.Paper_examples.fig1 ()) f

(** Run under the sanitizer monitor; [Some v] iff it raised. *)
let sanitized_violation ?(max_cycles = 100_000) ?chaos g =
  let memory = Sim.Memory.of_graph g in
  match
    Sim.Engine.run ~max_cycles ?chaos ~memory
      ~monitor:(Sim.Sanitizer.monitor ())
      g
  with
  | (_ : Sim.Engine.outcome) -> None
  | exception Sim.Sanitizer.Violation v -> Some v

let deadlock_cycle g =
  let out = Sim.Engine.run ~max_cycles:100_000 ~memory:(Sim.Memory.of_graph g) g in
  match out.Sim.Engine.stats.Sim.Engine.status with
  | Sim.Engine.Deadlock c -> c
  | st -> Alcotest.failf "expected deadlock, got %a" Sim.Engine.pp_status st

(* ------------------------------------------------------------------ *)
(* Allocation budgets *)

(* A kernel compiled (BB-ordered) and shared by CRUSH. *)
let crush_graph name =
  let b = Kernels.Registry.find name in
  let c = compile b.Kernels.Registry.source in
  ignore
    (Crush.Share.crush c.Minic.Codegen.graph
       ~critical_loops:c.Minic.Codegen.critical_loops);
  (b, c.Minic.Codegen.graph)

(* Minor words allocated by [f ()], less what reading the counter
   itself allocates. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  f ();
  let w2 = Gc.minor_words () in
  w2 -. w1 -. (w1 -. w0)

(* One probe on a mid-run state with a real blocked region allocates
   nothing, whatever the graph: the demand rules, frontier, adjacency
   and DFS all live in the per-simulation scratch. *)
let test_probe_allocation_free () =
  List.iter
    (fun name ->
      let b, g = crush_graph name in
      let measured = ref None in
      let monitor sim ~cycle = function
        | Sim.Engine.After_settle when !measured = None && cycle >= 1000 ->
            let stalled = Array.of_list (Sim.Engine.stalled_channels sim) in
            if Array.length stalled >= 10 then begin
              let ps = Sim.Forensics.probe_scratch sim in
              let probe () =
                ignore
                  (Sim.Forensics.probe_core_exists ps ~stalled
                     ~n_stalled:(Array.length stalled))
              in
              probe ();
              measured := Some (minor_words probe)
            end
        | _ -> ()
      in
      ignore (Kernels.Harness.run_circuit ~monitor b g);
      match !measured with
      | Some words ->
          Alcotest.(check (float 0.0))
            (name ^ ": minor words of one probe") 0.0 words
      | None -> Alcotest.failf "%s: no mid-run state with a blocked region" name)
    [ "symm"; "gsum" ]

(* A whole sanitized run stays within a per-cycle minor-word budget:
   the ledgers and the probe allocate nothing per cycle, so what is
   left is the engine's own payloads and the per-run set-up. *)
let test_sanitized_run_budget () =
  let b, g = crush_graph "gsum" in
  let image = Sim.Engine.image g in
  let memory = Sim.Memory.of_graph g in
  Hashtbl.iter (Sim.Memory.set_floats memory)
    (Kernels.Registry.fresh_inputs ~seed:1 b);
  let cycles = ref 0 in
  let words =
    minor_words (fun () ->
        let out =
          Sim.Engine.run_image ~memory ~monitor:(Sim.Sanitizer.monitor ())
            image
        in
        cycles := out.Sim.Engine.stats.Sim.Engine.cycles)
  in
  checkb "gsum completed" (!cycles > 1000);
  let per_cycle = words /. float_of_int !cycles in
  if per_cycle >= 150.0 then
    Alcotest.failf "sanitized gsum: %.1f minor words per cycle (budget 150)"
      per_cycle

(* ------------------------------------------------------------------ *)
(* Engine monitor hook *)

let test_monitor_hook () =
  let graph () = (Crush.Paper_examples.fig1 ()).Crush.Paper_examples.graph in
  let settled = ref 0 and stepped = ref 0 in
  let monitor _ ~cycle:_ = function
    | Sim.Engine.After_settle -> incr settled
    | Sim.Engine.After_step -> incr stepped
  in
  let monitored = Sim.Engine.run ~monitor (graph ()) in
  let plain = Sim.Engine.run (graph ()) in
  checkb "completed" (Sim.Engine.is_completed monitored);
  checkb "monitor ran" (!settled > 0);
  checki "one settle per step" !settled !stepped;
  checki "cycles unchanged by the hook" (cycles plain) (cycles monitored);
  checki "transfers unchanged by the hook"
    plain.Sim.Engine.stats.Sim.Engine.transfers
    monitored.Sim.Engine.stats.Sim.Engine.transfers

(* ------------------------------------------------------------------ *)
(* Fault conviction: pinned invariant, strictly earlier than deadlock *)

let test_fault_convicted fault ~invariant () =
  let dc = deadlock_cycle (fault_circuit fault) in
  match sanitized_violation (fault_circuit fault) with
  | None ->
      Alcotest.failf "%s: no sanitizer violation"
        (Crush.Faults.describe fault)
  | Some v ->
      Alcotest.(check string) "invariant" invariant v.Sim.Sanitizer.invariant;
      checkb
        (Fmt.str "violation cycle %d strictly before deadlock cycle %d"
           v.Sim.Sanitizer.cycle dc)
        (v.Sim.Sanitizer.cycle < dc)

(* ------------------------------------------------------------------ *)
(* Zero violations on clean circuits *)

let test_paper_examples_silent () =
  List.iter
    (fun (name, g) ->
      match sanitized_violation g with
      | None -> ()
      | Some v ->
          Alcotest.failf "%s: clean circuit violated: %a" name
            Sim.Sanitizer.pp_violation v)
    [
      ("fig1", (Crush.Paper_examples.fig1 ()).Crush.Paper_examples.graph);
      ( "fig1 shared (credits)",
        let b = Crush.Paper_examples.fig1 () in
        Crush.Paper_examples.share_pair b
          ~ops:[ b.Crush.Paper_examples.m1; b.Crush.Paper_examples.m2 ]
          `Credits );
      ("fig5", (Crush.Paper_examples.fig5 ()).Crush.Paper_examples.graph);
    ]

let test_clean_kernels_silent () =
  List.iter
    (fun name ->
      let b = Kernels.Registry.find name in
      List.iter
        (fun strategy ->
          List.iter
            (fun chaos ->
              let c =
                Minic.Codegen.compile_source ~strategy
                  b.Kernels.Registry.source
              in
              ignore
                (Crush.Share.crush c.Minic.Codegen.graph
                   ~critical_loops:c.Minic.Codegen.critical_loops);
              match
                Kernels.Harness.run_circuit
                  ~monitor:(Sim.Sanitizer.monitor ())
                  ?chaos b c.Minic.Codegen.graph
              with
              | v ->
                  checkb
                    (Fmt.str "%s correct" name)
                    v.Kernels.Harness.functionally_correct
              | exception Sim.Sanitizer.Violation v ->
                  Alcotest.failf "%s: clean kernel violated: %a" name
                    Sim.Sanitizer.pp_violation v)
            [ None; Some (Sim.Chaos.default ~seed:11) ])
        [ Minic.Codegen.Bb_ordered; Minic.Codegen.Fast_token ])
    [ "atax"; "gsum" ]

(* ------------------------------------------------------------------ *)
(* ddmin reducer *)

let test_reduce_fault fault () =
  let v0 =
    match sanitized_violation (fault_circuit fault) with
    | Some v -> v
    | None -> Alcotest.fail "fault circuit trips no invariant"
  in
  match Exec.Reduce.minimize (fault_circuit fault) with
  | None -> Alcotest.fail "reducer produced nothing"
  | Some r ->
      Dataflow.Validate.check_exn r.Exec.Reduce.graph;
      Alcotest.(check string)
        "same invariant" v0.Sim.Sanitizer.invariant
        r.Exec.Reduce.violation.Sim.Sanitizer.invariant;
      checkb
        (Fmt.str "kept %d units (want <= 8)" r.Exec.Reduce.kept_units)
        (r.Exec.Reduce.kept_units <= 8);
      checkb
        (Fmt.str "spent %d evals (budget 250)" r.Exec.Reduce.evals)
        (r.Exec.Reduce.evals <= 250)

let test_reduce_deterministic () =
  let fault = Crush.Faults.Creditless_naive in
  let shrink () =
    match Exec.Reduce.minimize (fault_circuit fault) with
    | Some r -> r
    | None -> Alcotest.fail "reducer produced nothing"
  in
  let a = shrink () and b = shrink () in
  checki "same kept units" a.Exec.Reduce.kept_units b.Exec.Reduce.kept_units;
  checki "same evals" a.Exec.Reduce.evals b.Exec.Reduce.evals;
  checki "same violation cycle" a.Exec.Reduce.violation.Sim.Sanitizer.cycle
    b.Exec.Reduce.violation.Sim.Sanitizer.cycle;
  checkb "byte-equal repro JSON"
    (Exec.Jsonl.to_string (Exec.Reduce.graph_to_json a.Exec.Reduce.graph)
    = Exec.Jsonl.to_string (Exec.Reduce.graph_to_json b.Exec.Reduce.graph))

let test_repro_roundtrip () =
  let fault = Crush.Faults.Overallocated_credits 2 in
  let r =
    match Exec.Reduce.minimize (fault_circuit fault) with
    | Some r -> r
    | None -> Alcotest.fail "reducer produced nothing"
  in
  let meta = Exec.Reduce.meta_of_result ~fault:"overalloc" r in
  let path = Filename.temp_file "crush_test" ".repro.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Exec.Reduce.write_repro path meta r.Exec.Reduce.graph;
      match Exec.Reduce.load_repro path with
      | None -> Alcotest.fail "repro did not load"
      | Some (meta', g) ->
          Alcotest.(check string)
            "invariant survives the codec" meta.Exec.Reduce.invariant
            meta'.Exec.Reduce.invariant;
          checki "unit count survives the codec"
            (Dataflow.Graph.live_unit_count r.Exec.Reduce.graph)
            (Dataflow.Graph.live_unit_count g);
          checkb "circuit JSON is stable under reload"
            (Exec.Jsonl.to_string (Exec.Reduce.graph_to_json r.Exec.Reduce.graph)
            = Exec.Jsonl.to_string (Exec.Reduce.graph_to_json g));
          (match Exec.Reduce.simulate ~max_cycles:100_000 g with
          | Some v ->
              Alcotest.(check string)
                "reloaded repro trips the invariant" meta.Exec.Reduce.invariant
                v.Sim.Sanitizer.invariant;
              checki "at the recorded cycle" meta.Exec.Reduce.cycle
                v.Sim.Sanitizer.cycle
          | None -> Alcotest.fail "reloaded repro trips nothing"))

(* ------------------------------------------------------------------ *)
(* Committed reproducers (examples/repros/) *)

let test_committed_repros () =
  List.iter
    (fun slug ->
      let path = Fmt.str "../examples/repros/fault_%s.repro.json" slug in
      match Exec.Reduce.load_repro path with
      | None -> Alcotest.failf "cannot load %s" path
      | Some (meta, g) -> (
          checkb
            (Fmt.str "%s: <= 8 kept units" slug)
            (Exec.Reduce.kept_units g <= 8);
          match Exec.Reduce.simulate ~max_cycles:100_000 g with
          | Some v ->
              Alcotest.(check string)
                (Fmt.str "%s: pinned invariant" slug)
                meta.Exec.Reduce.invariant v.Sim.Sanitizer.invariant;
              checki
                (Fmt.str "%s: pinned cycle" slug)
                meta.Exec.Reduce.cycle v.Sim.Sanitizer.cycle
          | None -> Alcotest.failf "%s: trips nothing" slug))
    [ "overalloc"; "creditless"; "rotation" ]

(* ------------------------------------------------------------------ *)
(* Circuit decoder: total on sizes that cannot build a graph *)

let test_decoder_rejects_bad_sizes () =
  (* [circuit {|{"k":"fork","outputs":-1,"lazy":false}|}] is the input
     that once raised [Invalid_argument "Array.make"]; with
     [outputs = 100000000] the same 157 bytes once decoded into an
     800 MB heap. *)
  let unit kind =
    Fmt.str
      {|{"kind":%s,"label":"f","bb":0,"loop":0,"loop_header":false,"pinned":false}|}
      kind
  in
  let circuit ?(more = []) ?(channels = "[]") ?(memories = "[]") kind =
    Fmt.str {|{"units":[%s],"channels":%s,"memories":%s}|}
      (String.concat "," (List.map unit (kind :: more)))
      channels memories
  in
  let decodes text =
    match Exec.Jsonl.parse text with
    | Error e -> Alcotest.failf "fixture does not parse: %s" e
    | Ok j -> (
        match Exec.Reduce.graph_of_json j with
        | g -> Option.is_some g
        | exception e ->
            Alcotest.failf "graph_of_json raised %s on %s" (Printexc.to_string e)
              text)
  in
  (* A fork whose two outputs feed two sinks: as many ports as channels. *)
  let sink = {|{"k":"sink"}|} in
  let two_channels =
    {|[{"src":[0,0],"dst":[1,0]},{"src":[0,1],"dst":[2,0]}]|}
  in
  checkb "a well-formed fork decodes"
    (decodes
       (circuit ~more:[ sink; sink ] ~channels:two_channels
          {|{"k":"fork","outputs":2,"lazy":false}|}));
  checkb "more fork outputs than channels"
    (not
       (decodes
          (circuit ~more:[ sink; sink ] ~channels:two_channels
             {|{"k":"fork","outputs":3,"lazy":false}|})));
  List.iter
    (fun kind -> checkb kind (not (decodes (circuit kind))))
    [
      {|{"k":"fork","outputs":-1,"lazy":false}|};
      {|{"k":"join","inputs":-2,"keep":[]}|};
      {|{"k":"merge","inputs":-1}|};
      {|{"k":"mux","inputs":-3}|};
      {|{"k":"branch","outputs":-1}|};
      {|{"k":"buffer","slots":-1,"transparent":false,"narrow":false,"init":[]}|};
      {|{"k":"op","op":"fadd","latency":4,"ports":-2}|};
      {|{"k":"fork","outputs":4611686018427387903,"lazy":false}|};
      {|{"k":"fork","outputs":100000000,"lazy":false}|};
    ];
  checkb "negative memory size"
    (not
       (decodes
          (circuit ~memories:{|[{"name":"A","size":-4}]|} {|{"k":"sink"}|})))

let suite =
  [
    ("engine: monitor hook is transparent", `Quick, test_monitor_hook);
    ( "sanitizer: over-allocated credits convicted early",
      `Quick,
      test_fault_convicted (Crush.Faults.Overallocated_credits 2)
        ~invariant:"eq1-credit-capacity" );
    ( "sanitizer: creditless naive convicted early",
      `Quick,
      test_fault_convicted Crush.Faults.Creditless_naive
        ~invariant:"eq1-credit-capacity" );
    ( "sanitizer: reversed rotation convicted early",
      `Quick,
      test_fault_convicted Crush.Faults.Reversed_rotation
        ~invariant:"deadlock-wait-cycle" );
    ("sanitizer: paper examples silent", `Quick, test_paper_examples_silent);
    ("sanitizer: clean kernels silent", `Slow, test_clean_kernels_silent);
    ( "reduce: overalloc shrinks to <= 8 units",
      `Quick,
      test_reduce_fault (Crush.Faults.Overallocated_credits 2) );
    ( "reduce: creditless shrinks to <= 8 units",
      `Quick,
      test_reduce_fault Crush.Faults.Creditless_naive );
    ( "reduce: rotation shrinks to <= 8 units",
      `Quick,
      test_reduce_fault Crush.Faults.Reversed_rotation );
    ("reduce: deterministic", `Quick, test_reduce_deterministic);
    ("reduce: repro file round-trips", `Quick, test_repro_roundtrip);
    ("repros: committed files replay pinned", `Quick, test_committed_repros);
    ("reduce: decoder rejects bad sizes", `Quick, test_decoder_rejects_bad_sizes);
    ("probe: one call allocates nothing", `Quick, test_probe_allocation_free);
    ( "sanitizer: gsum under 150 minor words per cycle",
      `Quick,
      test_sanitized_run_budget );
  ]
