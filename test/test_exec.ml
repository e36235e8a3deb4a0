(** Tests for the parallel simulation-campaign subsystem (lib/exec) and
    the active-set engine hot path.

    The two contracts under test:

    - {b determinism}: [Campaign.map ~jobs:N] is observably [List.map]
      for any [N] — same values, same order, same (first) exception.
      The flagship suite runs every registry kernel under three chaos
      seeds at jobs 1 and jobs 4 and insists the full [Engine.stats]
      records (status, cycles, transfers, exit values) are structurally
      identical;

    - {b engine equivalence}: the active-set sequential phase and the
      O(1) transfer/quiescence counters must not change simulated
      behaviour, pinned by exact pre-change cycle/transfer counts on the
      paper's motivating examples. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Pool + Campaign unit tests                                          *)

let test_map_matches_serial () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  check
    Alcotest.(list int)
    "jobs=4 = serial" (List.map f xs)
    (Exec.Campaign.map ~jobs:4 f xs);
  check
    Alcotest.(list int)
    "jobs=1 = serial" (List.map f xs)
    (Exec.Campaign.map ~jobs:1 f xs)

let test_mapi_indices () =
  let xs = [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  let f i x = Fmt.str "%d:%s" i x in
  check
    Alcotest.(list string)
    "indices in submission order" (List.mapi f xs)
    (Exec.Campaign.mapi ~jobs:3 f xs)

let test_map_empty_and_singleton () =
  check Alcotest.(list int) "empty" [] (Exec.Campaign.map ~jobs:4 succ []);
  check Alcotest.(list int) "singleton" [ 8 ] (Exec.Campaign.map ~jobs:4 succ [ 7 ])

let test_more_jobs_than_tasks () =
  (* The pool must clamp worker count to the batch size and not wedge. *)
  check
    Alcotest.(list int)
    "jobs=16 over 3 tasks" [ 2; 3; 4 ]
    (Exec.Campaign.map ~jobs:16 succ [ 1; 2; 3 ])

exception Boom of int

let test_first_exception_wins () =
  (* Two tasks raise; the earliest-submitted exception must surface,
     regardless of which worker finished first. *)
  let f x = if x >= 7 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      match Exec.Campaign.map ~jobs f [ 1; 5; 7; 2; 9; 3 ] with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom n ->
          checki (Fmt.str "first error at jobs=%d" jobs) 7 n)
    [ 1; 4 ]

let test_sweep_product_order () =
  let got = Exec.Campaign.sweep ~jobs:3 (fun x y -> x ^ y) [ "a"; "b" ] [ "x"; "y" ] in
  check
    Alcotest.(list (triple string string string))
    "x-major product order"
    [ ("a", "x", "ax"); ("a", "y", "ay"); ("b", "x", "bx"); ("b", "y", "by") ]
    got

let test_pool_reuse () =
  (* One pool across several batches; batches must not interfere. *)
  Exec.Pool.with_pool ~jobs:3 (fun pool ->
      for round = 1 to 5 do
        let n = 10 * round in
        let acc = Array.make n 0 in
        Exec.Pool.run_batch pool
          (Array.init n (fun i () -> acc.(i) <- i * round));
        checki
          (Fmt.str "round %d sum" round)
          (round * n * (n - 1) / 2)
          (Array.fold_left ( + ) 0 acc)
      done)

let test_run_sims_matches_serial () =
  (* The sim-task front door: same circuits, serial vs parallel. *)
  let mk () =
    let b = Crush.Paper_examples.fig1 () in
    Exec.Campaign.sim_task
      (Crush.Paper_examples.share_pair b ~ops:[ b.Crush.Paper_examples.m2; b.Crush.Paper_examples.m3 ] `Credits)
  in
  let tasks () = [ mk (); mk (); mk (); mk () ] in
  let serial = Exec.Campaign.run_sims ~jobs:1 (tasks ()) in
  let parallel = Exec.Campaign.run_sims ~jobs:4 (tasks ()) in
  checkb "run_sims deterministic" (serial = parallel);
  checki "all four completed" 4
    (List.length
       (List.filter
          (fun (s : Sim.Engine.stats) ->
            match s.Sim.Engine.status with
            | Sim.Engine.Completed _ -> true
            | _ -> false)
          serial))

(* ------------------------------------------------------------------ *)
(* Campaign determinism on the real kernels, under chaos               *)

(** Every registry kernel x 3 chaos seeds, CRUSH-shared, simulated at
    jobs=1 and jobs=4: the full stats records must be structurally
    identical (status, cycles, transfers, exit values).  Each task
    compiles and shares its own circuit and builds its own memory image,
    so tasks share no mutable state — the contract Campaign documents. *)
let test_campaign_determinism () =
  let seeds = [ 42; 1009; 31337 ] in
  let tasks =
    List.concat_map
      (fun (b : Kernels.Registry.bench) ->
        List.map (fun s -> (b, s)) seeds)
      Kernels.Registry.all
  in
  let run_one ((b : Kernels.Registry.bench), seed) =
    let c = Minic.Codegen.compile_source b.Kernels.Registry.source in
    ignore
      (Crush.Share.crush c.Minic.Codegen.graph
         ~critical_loops:c.Minic.Codegen.critical_loops);
    let inputs = Kernels.Registry.fresh_inputs b in
    let memory = Sim.Memory.of_graph c.Minic.Codegen.graph in
    Hashtbl.iter (fun n d -> Sim.Memory.set_floats memory n d) inputs;
    let out =
      Sim.Engine.run ~chaos:(Sim.Chaos.default ~seed) ~memory
        c.Minic.Codegen.graph
    in
    out.Sim.Engine.stats
  in
  let serial = Exec.Campaign.map ~jobs:1 run_one tasks in
  let parallel = Exec.Campaign.map ~jobs:4 run_one tasks in
  checki "one stats record per task" (List.length tasks) (List.length serial);
  List.iteri
    (fun i (((b : Kernels.Registry.bench), seed), (s, p)) ->
      checkb
        (Fmt.str "%s seed %d (task %d): parallel stats = serial stats"
           b.Kernels.Registry.name seed i)
        (s = p))
    (List.combine tasks (List.combine serial parallel));
  List.iter2
    (fun ((b : Kernels.Registry.bench), seed) (s : Sim.Engine.stats) ->
      match s.Sim.Engine.status with
      | Sim.Engine.Completed _ -> ()
      | st ->
          Alcotest.failf "%s seed %d did not complete: %a"
            b.Kernels.Registry.name seed Sim.Engine.pp_status st)
    tasks serial

(* ------------------------------------------------------------------ *)
(* Active-set engine: exact pre-change behaviour on the paper examples *)

(** Cycle, transfer and exit counts recorded on the engine before the
    active-set sequential phase and the O(1) transfer/exit counters were
    introduced; the overhaul must be cycle-accurate to the old full-scan
    engine. *)
let test_active_set_engine_pins () =
  let open Crush.Paper_examples in
  (* Figure 1a, unshared. *)
  let st, cyc, ok = run_and_check (fig1 ()) in
  checkb "fig1a completes" (match st with Sim.Engine.Completed _ -> true | _ -> false);
  checki "fig1a cycles" 155 cyc;
  checkb "fig1a memory correct" ok;
  let pin name mk want_status ~cycles:want_cycles ~transfers:want_transfers
      ~exits:want_exits =
    let out = Sim.Engine.run (mk ()) in
    let s = out.Sim.Engine.stats in
    checkb (name ^ " status")
      (match (s.Sim.Engine.status, want_status) with
      | Sim.Engine.Completed _, `Completed -> true
      | Sim.Engine.Deadlock _, `Deadlock -> true
      | _ -> false);
    checki (name ^ " cycles") want_cycles s.Sim.Engine.cycles;
    checki (name ^ " transfers") want_transfers s.Sim.Engine.transfers;
    checki (name ^ " exits") want_exits
      (List.length s.Sim.Engine.exit_values)
  in
  pin "fig1c credit sharing"
    (fun () ->
      let b = fig1 () in
      share_pair b ~ops:[ b.m2; b.m3 ] `Credits)
    `Completed ~cycles:176 ~transfers:4387 ~exits:1;
  pin "fig1e priority sharing"
    (fun () ->
      let b = fig1 () in
      share_pair b ~ops:[ b.m3; b.m1 ] (`Priority [ 0; 1 ]))
    `Completed ~cycles:172 ~transfers:4387 ~exits:1;
  pin "fig1d rotation deadlock"
    (fun () ->
      let b = fig1 () in
      share_pair b ~ops:[ b.m3; b.m1 ] (`Rotation [ 0; 1 ]))
    `Deadlock ~cycles:5 ~transfers:38 ~exits:0;
  pin "fig2a total order"
    (fun () ->
      let b = fig1 () in
      share_pair b ~ops:[ b.m1; b.m3 ] (`Rotation [ 0; 1 ]))
    `Completed ~cycles:260 ~transfers:4387 ~exits:1;
  let st, cyc = run (fig5 ()) in
  checkb "fig5 completes" (match st with Sim.Engine.Completed _ -> true | _ -> false);
  checki "fig5 cycles" 193 cyc

(** An atax end-to-end pin: compile, CRUSH-share, simulate, verify —
    exact cycle count from the pre-overhaul engine. *)
let test_kernel_cycle_pin () =
  let b = Kernels.Registry.find "atax" in
  let c = Minic.Codegen.compile_source b.Kernels.Registry.source in
  ignore
    (Crush.Share.crush c.Minic.Codegen.graph
       ~critical_loops:c.Minic.Codegen.critical_loops);
  let v = Kernels.Harness.run_circuit b c.Minic.Codegen.graph in
  checkb "atax correct" v.Kernels.Harness.functionally_correct;
  checki "atax cycles" 4864 v.Kernels.Harness.cycles

(* ------------------------------------------------------------------ *)
(* Supervised campaigns: taxonomy, watchdog, retry/quarantine, resume  *)

(** Collapse an outcome to a deterministic fingerprint: class plus the
    payload fields that must be bit-identical across [jobs] widths.
    (Backtraces are excluded — they are capture-point dependent.) *)
let fingerprint ok = function
  | Exec.Outcome.Ok v -> Fmt.str "ok:%s" (ok v)
  | Exec.Outcome.Sim_deadlock { cycle; core } ->
      Fmt.str "deadlock:%d:%s" cycle (String.concat "," core)
  | Exec.Outcome.Job_timeout { cycles } -> Fmt.str "timeout:%d" cycles
  | Exec.Outcome.Worker_crash { exn; _ } -> Fmt.str "crash:%s" exn
  | o -> Exec.Outcome.class_name o

let test_isolation_property =
  (* A crashing or timing-out job must not perturb its siblings: the
     supervised outcome list is bit-identical at jobs=1 and jobs=4, with
     every job classified independently. *)
  qtest ~count:50 "supervised: poisoned jobs never perturb siblings"
    QCheck2.Gen.(list_size (int_range 0 30) (int_range 0 100))
    (fun xs ->
      let tasks = List.mapi (fun i x -> (i, x)) xs in
      let f ~deadline:_ (_, x) =
        if x mod 7 = 3 then raise (Boom x)
        else if x mod 7 = 5 then raise (Sim.Engine.Timeout { cycles = x })
        else Exec.Outcome.Ok ((x * x) + 1)
      in
      let key (i, _) = string_of_int i in
      let run jobs =
        List.map
          (fun (_, o) -> fingerprint string_of_int o)
          (Exec.Campaign.map_outcomes ~jobs ~key f tasks)
      in
      let serial = run 1 and parallel = run 4 in
      serial = parallel
      && List.for_all2
           (fun (_, x) fp ->
             match x mod 7 with
             | 3 -> String.length fp >= 5 && String.sub fp 0 5 = "crash"
             | 5 -> fp = Fmt.str "timeout:%d" x
             | _ -> fp = Fmt.str "ok:%d" ((x * x) + 1))
           tasks serial)

let test_engine_watchdog () =
  (* A deadline that is already due interrupts at cycle 0 — before any
     wall clock elapses — and one that comes due later interrupts at the
     next multiple of the poll period, deterministically. *)
  let g = (Crush.Paper_examples.fig1 ()).Crush.Paper_examples.graph in
  (match Sim.Engine.run ~deadline:(fun () -> true) g with
  | _ -> Alcotest.fail "due deadline did not interrupt"
  | exception Sim.Engine.Timeout { cycles } -> checki "cycle 0" 0 cycles);
  let g = (Crush.Paper_examples.fig1 ()).Crush.Paper_examples.graph in
  let polls = ref 0 in
  let deadline () =
    incr polls;
    !polls > 2
  in
  match Sim.Engine.run ~deadline g with
  | _ -> Alcotest.fail "counting deadline did not interrupt"
  | exception Sim.Engine.Timeout { cycles } ->
      checki "third poll" (2 * Sim.Engine.deadline_poll_period) cycles

let test_supervised_sims_deterministic () =
  (* run_sims_supervised with a zero wall-clock budget: every task times
     out at cycle 0, identically at any jobs width. *)
  let task () =
    Exec.Campaign.sim_task
      (Crush.Paper_examples.fig1 ()).Crush.Paper_examples.graph
  in
  let sup = Exec.Campaign.supervision ~timeout_s:0.0 () in
  let run jobs =
    List.map
      (fun (_, o) -> fingerprint (fun _ -> "stats") o)
      (Exec.Campaign.run_sims_supervised ~jobs ~sup
         [ task (); task (); task () ])
  in
  check
    Alcotest.(list string)
    "all timeout at cycle 0"
    [ "timeout:0"; "timeout:0"; "timeout:0" ]
    (run 1);
  check Alcotest.(list string) "jobs=4 identical" (run 1) (run 4)

let with_temp_journal f =
  let path = Filename.temp_file "crush_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      let q = Exec.Journal.quarantine_path path in
      if Sys.file_exists q then Sys.remove q)
    (fun () -> f path)

let test_journal_roundtrip () =
  with_temp_journal (fun path ->
      Sys.remove path;
      (* outcomes exercising every payload shape, including the string
         escapes and non-finite floats the codec must survive *)
      let entries =
        [
          { Exec.Journal.key = "a \"quoted\"\nkey"; attempts = 1;
            outcome = Exec.Outcome.(to_json (fun v -> Exec.Jsonl.Float v))
                        (Exec.Outcome.Ok Float.nan) };
          { Exec.Journal.key = "b"; attempts = 3;
            outcome = Exec.Outcome.(to_json (fun _ -> Exec.Jsonl.Null))
                        (Exec.Outcome.Sim_deadlock
                           { cycle = 42; core = [ "u\\1"; "u2" ] }) };
          { Exec.Journal.key = "c"; attempts = 2;
            outcome = Exec.Outcome.(to_json (fun _ -> Exec.Jsonl.Null))
                        (Exec.Outcome.Worker_crash
                           { exn = "Boom(7)"; backtrace = "frame1\nframe2" }) };
        ]
      in
      let w = Exec.Journal.open_append path in
      List.iter (Exec.Journal.record w) entries;
      Exec.Journal.close w;
      let tbl = Exec.Journal.load path in
      checki "all keys load" (List.length entries) (Hashtbl.length tbl);
      List.iter
        (fun (e : Exec.Journal.entry) ->
          match Hashtbl.find_opt tbl e.Exec.Journal.key with
          | None -> Alcotest.fail ("missing key " ^ e.Exec.Journal.key)
          | Some got ->
              checki "attempts" e.Exec.Journal.attempts got.Exec.Journal.attempts;
              check Alcotest.string "outcome round-trips"
                (Exec.Jsonl.to_string e.Exec.Journal.outcome)
                (Exec.Jsonl.to_string got.Exec.Journal.outcome))
        entries;
      (* a torn final line must not poison the resume *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"schema_version\":1,\"key\":\"torn";
      close_out oc;
      checki "torn line skipped" (List.length entries)
        (Hashtbl.length (Exec.Journal.load path)))

(* ------------------------------------------------------------------ *)
(* Jsonl fuzz: generated values round-trip exactly; arbitrary bytes
   parse or fail with a located error, never an escaping exception.     *)

let gen_jsonl =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      let scalar =
        oneof
          [
            return Exec.Jsonl.Null;
            map (fun b -> Exec.Jsonl.Bool b) bool;
            map (fun i -> Exec.Jsonl.Int i) int;
            (* non-finite floats included: the codec must survive
               nan/inf, which plain JSON cannot spell *)
            map
              (fun f -> Exec.Jsonl.Float f)
              (oneof
                 [
                   float;
                   oneofl [ Float.nan; Float.infinity; Float.neg_infinity ];
                 ]);
            (* arbitrary bytes: quotes, backslashes, control chars,
               non-ASCII — everything the string escaper must handle *)
            map (fun s -> Exec.Jsonl.String s) string;
          ]
      in
      if n <= 0 then scalar
      else
        frequency
          [
            (3, scalar);
            ( 1,
              map
                (fun xs -> Exec.Jsonl.List xs)
                (list_size (int_bound 4) (self (n / 2))) );
            ( 1,
              map
                (fun kvs -> Exec.Jsonl.Obj kvs)
                (list_size (int_bound 4)
                   (pair string (self (n / 2)))) );
          ])

let test_jsonl_roundtrip =
  qtest ~count:300 "jsonl: to_string |> parse is the identity" gen_jsonl
    (fun j ->
      match Exec.Jsonl.parse (Exec.Jsonl.to_string j) with
      (* structural compare: nan = nan, unlike (=) *)
      | Ok j' -> compare j j' = 0
      | Error e -> QCheck2.Test.fail_reportf "parse failed: %s" e)

let test_jsonl_parse_total =
  qtest ~count:500 "jsonl: arbitrary bytes parse or located-error"
    QCheck2.Gen.string (fun s ->
      match Exec.Jsonl.parse s with
      | Ok _ -> true
      | Error e -> String.length e > 0)

let test_journal_duplicate_keys () =
  with_temp_journal (fun path ->
      Sys.remove path;
      let entry key attempts =
        { Exec.Journal.key; attempts; outcome = Exec.Jsonl.Int attempts }
      in
      let w = Exec.Journal.open_append path in
      List.iter (Exec.Journal.record w)
        [ entry "a" 1; entry "b" 1; entry "a" 2; entry "a" 3; entry "c" 1 ];
      Exec.Journal.close w;
      let tbl, dups = Exec.Journal.load_with_duplicates path in
      checki "three distinct keys" 3 (Hashtbl.length tbl);
      checki "two superseded records counted" 2 dups;
      checki "last record wins" 3 (Hashtbl.find tbl "a").Exec.Journal.attempts;
      (* the warning path must agree with the counting path *)
      checki "load agrees" 3 (Hashtbl.length (Exec.Journal.load path)))

let test_outcome_sanitizer_codec () =
  let roundtrip o =
    let j = Exec.Outcome.to_json (fun _ -> Exec.Jsonl.Null) o in
    match Exec.Outcome.of_json (fun _ -> Some ()) j with
    | None -> Alcotest.fail "sanitizer outcome did not decode"
    | Some o' ->
        check Alcotest.string "codec stable"
          (Exec.Jsonl.to_string j)
          (Exec.Jsonl.to_string (Exec.Outcome.to_json (fun _ -> Exec.Jsonl.Null) o'))
  in
  let v repro =
    Exec.Outcome.Sanitizer_violation
      {
        cycle = 17;
        unit_label = "cc_imul0";
        invariant = "eq1-credit-capacity";
        detail = "in flight 3 > 1 slots";
        repro;
      }
  in
  roundtrip (v None);
  roundtrip (v (Some "repros/fault_overalloc.repro.json"));
  checki "sanitizer exit code" 16 (Exec.Outcome.exit_code (v None));
  check Alcotest.string "sanitizer class" "sanitizer"
    (Exec.Outcome.class_name (v None))

let test_resume_skips_completed () =
  with_temp_journal (fun journal ->
      let sup = Exec.Campaign.supervision ~journal () in
      let tasks = [ 1; 2; 3; 4; 5; 6 ] in
      let key = string_of_int in
      let executed = Atomic.make 0 in
      let f ~deadline:_ x =
        Atomic.incr executed;
        if x = 4 then failwith "poisoned task" else Exec.Outcome.Ok (10 * x)
      in
      checki "all pending before" 6
        (Exec.Campaign.pending_count ~sup ~key tasks);
      let first = Exec.Campaign.map_outcomes ~jobs:3 ~sup ~key
          ~encode:(fun v -> Exec.Jsonl.Int v)
          ~decode:Exec.Jsonl.to_int f tasks
      in
      checki "all executed once" 6 (Atomic.get executed);
      (* every key is recorded — including the failed one — so nothing
         is pending and the rerun executes nothing *)
      checki "none pending after" 0
        (Exec.Campaign.pending_count ~sup ~key tasks);
      let second = Exec.Campaign.map_outcomes ~jobs:3 ~sup ~key
          ~encode:(fun v -> Exec.Jsonl.Int v)
          ~decode:Exec.Jsonl.to_int f tasks
      in
      checki "rerun executed nothing" 6 (Atomic.get executed);
      check
        Alcotest.(list string)
        "resumed outcomes identical"
        (List.map (fun (_, o) -> fingerprint string_of_int o) first)
        (List.map (fun (_, o) -> fingerprint string_of_int o) second))

let test_retry_and_quarantine () =
  (* A task failing on its first attempt succeeds under --retries 1; a
     task failing every attempt lands in the quarantine manifest. *)
  with_temp_journal (fun journal ->
      let attempts = Hashtbl.create 8 in
      let lock = Mutex.create () in
      let bump k =
        Mutex.lock lock;
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt attempts k) in
        Hashtbl.replace attempts k n;
        Mutex.unlock lock;
        n
      in
      let f ~deadline:_ x =
        let n = bump x in
        match x with
        | "flaky" when n = 1 -> failwith "transient glitch"
        | "hopeless" -> failwith "always broken"
        | _ -> Exec.Outcome.Ok x
      in
      let sup = Exec.Campaign.supervision ~retries:1 ~journal () in
      let out =
        Exec.Campaign.map_outcomes ~sup ~key:Fun.id f
          [ "steady"; "flaky"; "hopeless" ]
      in
      let classes = List.map (fun (_, o) -> Exec.Outcome.class_name o) out in
      check
        Alcotest.(list string)
        "flaky recovers, hopeless does not"
        [ "ok"; "ok"; "crash" ] classes;
      checki "flaky retried once" 2 (Hashtbl.find attempts "flaky");
      checki "hopeless exhausted retries" 2 (Hashtbl.find attempts "hopeless");
      match Exec.Journal.load_quarantine (Exec.Journal.quarantine_path journal) with
      | [ (key, att, cls) ] ->
          check Alcotest.string "quarantined key" "hopeless" key;
          checki "recorded attempts" 2 att;
          check Alcotest.string "recorded class" "crash" cls
      | q -> Alcotest.fail (Fmt.str "expected 1 quarantine entry, got %d"
                              (List.length q)))

(* The acceptance sweep of the supervision issue: an injected Eq. 1
   fault, a forced watchdog timeout and a crashing job all complete
   under keep-going semantics with the right classes, bit-identically at
   jobs=1 and jobs=4; a second run against the same journal re-executes
   only tasks it has not seen. *)
type acceptance_task = Good of string | Fault | Forced_timeout | Crashing

let acceptance_key = function
  | Good s -> "good:" ^ s
  | Fault -> "fault"
  | Forced_timeout -> "forced-timeout"
  | Crashing -> "crashing"

let test_supervised_acceptance () =
  let executed = Atomic.make 0 in
  let f ~deadline:_ task =
    Atomic.incr executed;
    match task with
    | Good _ ->
        Exec.Outcome.of_sim_run
          (Sim.Engine.run (Crush.Paper_examples.fig1 ()).Crush.Paper_examples.graph)
    | Fault ->
        let built = Crush.Paper_examples.fig1 () in
        let g = Crush.Faults.inject built (List.hd Crush.Faults.all) in
        Exec.Outcome.of_sim_run (Sim.Engine.run ~max_cycles:100_000 g)
    | Forced_timeout ->
        Exec.Outcome.of_sim_run
          (Sim.Engine.run ~deadline:(fun () -> true)
             (Crush.Paper_examples.fig1 ()).Crush.Paper_examples.graph)
    | Crashing -> failwith "injected worker crash"
  in
  let encode = Exec.Outcome.stats_to_json and decode = Exec.Outcome.stats_of_json in
  let tasks = [ Good "a"; Fault; Forced_timeout; Crashing; Good "b" ] in
  let fp (_, o) =
    fingerprint (fun (s : Sim.Engine.stats) -> string_of_int s.Sim.Engine.cycles) o
  in
  let classes out = List.map (fun (_, o) -> Exec.Outcome.class_name o) out in
  (* jobs=1 and jobs=4, fresh journals: identical classified outcomes *)
  let serial, parallel =
    with_temp_journal (fun j1 ->
        with_temp_journal (fun j4 ->
            let run jobs journal =
              Exec.Campaign.map_outcomes ~jobs
                ~sup:(Exec.Campaign.supervision ~journal ())
                ~key:acceptance_key ~encode ~decode f tasks
            in
            (run 1 j1, run 4 j4)))
  in
  check
    Alcotest.(list string)
    "every class lands where the taxonomy says"
    [ "ok"; "deadlock"; "timeout"; "crash"; "ok" ]
    (classes serial);
  check
    Alcotest.(list string)
    "jobs=1 and jobs=4 bit-identical" (List.map fp serial) (List.map fp parallel);
  (* checkpoint/resume: the journalled run re-executes only new work *)
  with_temp_journal (fun journal ->
      let sup = Exec.Campaign.supervision ~journal () in
      Atomic.set executed 0;
      let first =
        Exec.Campaign.map_outcomes ~jobs:4 ~sup ~key:acceptance_key ~encode
          ~decode f tasks
      in
      checki "first run executed everything" 5 (Atomic.get executed);
      let extended = tasks @ [ Good "c" ] in
      checki "only the new task is pending" 1
        (Exec.Campaign.pending_count ~sup ~key:acceptance_key extended);
      let second =
        Exec.Campaign.map_outcomes ~jobs:4 ~sup ~key:acceptance_key ~encode
          ~decode f extended
      in
      checki "second run executed only the new task" 6 (Atomic.get executed);
      check
        Alcotest.(list string)
        "resumed outcomes identical to the first run" (List.map fp first)
        (List.map fp (List.filteri (fun i _ -> i < 5) second));
      check Alcotest.string "new task completed" "ok"
        (Exec.Outcome.class_name (snd (List.nth second 5)));
      (* the failed jobs are on the quarantine manifest *)
      let quarantined =
        List.map (fun (k, _, _) -> k)
          (Exec.Journal.load_quarantine (Exec.Journal.quarantine_path journal))
      in
      check
        Alcotest.(slist string compare)
        "deadlock, timeout and crash are quarantined"
        [ "fault"; "forced-timeout"; "crashing" ]
        quarantined)

let suite =
  [
    Alcotest.test_case "campaign: map = serial map" `Quick test_map_matches_serial;
    Alcotest.test_case "campaign: mapi indices" `Quick test_mapi_indices;
    Alcotest.test_case "campaign: empty/singleton" `Quick test_map_empty_and_singleton;
    Alcotest.test_case "campaign: jobs > tasks" `Quick test_more_jobs_than_tasks;
    Alcotest.test_case "campaign: first exception wins" `Quick
      test_first_exception_wins;
    Alcotest.test_case "campaign: sweep product order" `Quick
      test_sweep_product_order;
    Alcotest.test_case "pool: reuse across batches" `Quick test_pool_reuse;
    Alcotest.test_case "campaign: run_sims deterministic" `Quick
      test_run_sims_matches_serial;
    Alcotest.test_case "campaign: kernel x chaos-seed determinism" `Slow
      test_campaign_determinism;
    Alcotest.test_case "engine: active-set pins on paper examples" `Quick
      test_active_set_engine_pins;
    Alcotest.test_case "engine: atax cycle pin" `Quick test_kernel_cycle_pin;
    test_isolation_property;
    Alcotest.test_case "engine: watchdog poll determinism" `Quick
      test_engine_watchdog;
    Alcotest.test_case "supervised: zero-timeout sims deterministic" `Quick
      test_supervised_sims_deterministic;
    Alcotest.test_case "supervised: journal round-trip" `Quick
      test_journal_roundtrip;
    test_jsonl_roundtrip;
    test_jsonl_parse_total;
    Alcotest.test_case "journal: duplicate keys counted, last wins" `Quick
      test_journal_duplicate_keys;
    Alcotest.test_case "outcome: sanitizer violation codec" `Quick
      test_outcome_sanitizer_codec;
    Alcotest.test_case "supervised: resume skips completed" `Quick
      test_resume_skips_completed;
    Alcotest.test_case "supervised: retry and quarantine" `Quick
      test_retry_and_quarantine;
    Alcotest.test_case "supervised: acceptance sweep" `Quick
      test_supervised_acceptance;
  ]
