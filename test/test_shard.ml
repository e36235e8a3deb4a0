(** Crash-isolated multi-process shard runner.

    Covers every layer of the supervision tree: the length-prefixed wire
    protocol (blocking channel I/O and the supervisor's incremental
    decoder, including torn and corrupt frames), deterministic chunk
    dealing, the torn-line-tolerant last-write-wins journal merge (as a
    qcheck property against serial journal bytes), the [Worker_lost] /
    [Worker_killed] taxonomy additions, atomic report writes, the
    reducer's wall-clock deadline — and end-to-end supervised campaigns
    with {e real forked workers}: clean runs byte-identical to serial,
    seeded chaos SIGKILLs mid-sweep, a crashing worker, a hard hang
    preempted by the heartbeat watchdog, and journal resume across
    runs.

    The test binary is its own worker: {!worker_main_if_requested} is
    called from [run_tests.ml] before alcotest parses argv. *)

open Helpers
module J = Exec.Jsonl
module W = Exec.Wire

(* ------------------------------------------------------------------ *)
(* Worker mode: the ops the forked test workers understand *)

let sum_to n = n * (n + 1) / 2

let spec_field name spec = Option.bind (J.member name spec) J.to_int

let worker_run _opts ~ctx spec =
  let op =
    Option.value ~default:"" (Option.bind (J.member "op" spec) J.to_str)
  in
  match op with
  | "hang" ->
      (* Never polls any deadline: only the supervisor's heartbeat
         watchdog can end this job. *)
      while true do
        ignore (Sys.opaque_identity 0)
      done;
      assert false
  | "exit" ->
      (* Die out from under the job, as a segfault or OOM kill would. *)
      exit (Option.value ~default:3 (spec_field "code" spec))
  | "close-pipe" ->
      (* Close every fd above 2 — the protocol pipe among them — and keep
         running: the parent reads EOF from a process that is still
         alive.  On Unix a [Unix.file_descr] is the fd number. *)
      Array.iter
        (fun name ->
          match int_of_string_opt name with
          | Some fd when fd > 2 -> (
              try Unix.close (Obj.magic fd : Unix.file_descr)
              with Unix.Unix_error _ -> ())
          | _ -> ())
        (Sys.readdir "/proc/self/fd");
      let sleep_ms = Option.value ~default:0 (spec_field "sleep_ms" spec) in
      Unix.sleepf (float_of_int sleep_ms /. 1000.);
      (Exec.Outcome.to_json (fun v -> J.Int v) (Exec.Outcome.Ok 0), 1)
  | "sum" ->
      let n = Option.value ~default:0 (spec_field "n" spec) in
      let sleep_ms = Option.value ~default:0 (spec_field "sleep_ms" spec) in
      let o, attempts =
        Exec.Campaign.run_with_retries ~retries:0 (fun ~deadline ->
            ignore (deadline ());
            ctx.Exec.Supervisor.heartbeat ();
            if sleep_ms > 0 then Unix.sleepf (float_of_int sleep_ms /. 1000.);
            Exec.Outcome.Ok (sum_to n))
      in
      (Exec.Outcome.to_json (fun v -> J.Int v) o, attempts)
  | other -> failwith ("test worker: unknown op " ^ other)

let worker_main_if_requested () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "__worker" then begin
    let opts = Exec.Supervisor.worker_opts_of_argv Sys.argv in
    let run =
      (* The test binary doubles as both the shard-test worker and the
         serve worker, so Test_serve can boot a real in-process daemon
         whose pool execs this same executable. *)
      match opts.Exec.Supervisor.kind with
      | "serve" -> Serve.Job.worker_run opts
      | _ -> worker_run opts
    in
    Exec.Supervisor.worker_main ~opts ~run ()
  end

(* ------------------------------------------------------------------ *)
(* Small file helpers *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rm path = try Sys.remove path with Sys_error _ -> ()

(** A temp journal base plus cleanup of every derived file the
    supervisor or the tests may create next to it. *)
let with_temp_journal f =
  let path = Filename.temp_file "crush-shard" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      rm path;
      rm (path ^ ".serial");
      rm (Exec.Journal.quarantine_path path);
      rm (Exec.Journal.quarantine_path (path ^ ".serial"));
      List.iter
        (fun i -> rm (Exec.Shard.shard_journal path i))
        (List.init 8 Fun.id))
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Wire protocol *)

let sample_msgs =
  [
    W.Hello { pid = 42; shard = 3 };
    W.Job
      {
        key = "sum:07";
        spec = J.Obj [ ("op", J.String "sum"); ("n", J.Int 7) ];
      };
    W.Heartbeat { key = "sum:07" };
    W.Result
      {
        key = "sum:07";
        attempts = 2;
        outcome = J.Obj [ ("s", J.String "ok"); ("v", J.Int 28) ];
      };
    W.Shutdown;
  ]

let render m = J.to_string (W.to_json m)

(** The exact frame bytes [W.write] puts on the pipe. *)
let frame m =
  let payload = render m in
  Fmt.str "%d\n%s\n" (String.length payload) payload

let drain d =
  let rec go acc =
    match W.next d with Some m -> go (m :: acc) | None -> List.rev acc
  in
  go []

let test_wire_channel_roundtrip () =
  let path = Filename.temp_file "crush-wire" ".bin" in
  Fun.protect
    ~finally:(fun () -> rm path)
    (fun () ->
      let oc = open_out_bin path in
      List.iter (W.write oc) sample_msgs;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          List.iter
            (fun m ->
              match W.read ic with
              | Some got -> Alcotest.(check string) "frame" (render m) (render got)
              | None -> Alcotest.fail "short read mid-stream")
            sample_msgs;
          checkb "EOF -> None" (W.read ic = None)))

let test_decoder_byte_at_a_time () =
  (* The supervisor's incremental decoder must reassemble frames from
     arbitrarily small [Unix.read] chunks — one byte is the worst case. *)
  let stream = String.concat "" (List.map frame sample_msgs) in
  let d = W.create_decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      W.feed d (Bytes.make 1 c) ~len:1;
      got := !got @ drain d)
    stream;
  checki "all frames recovered" (List.length sample_msgs) (List.length !got);
  List.iter2
    (fun m g -> Alcotest.(check string) "frame" (render m) (render g))
    sample_msgs !got

let test_decoder_incomplete_frame () =
  let d = W.create_decoder () in
  let bytes = frame W.Shutdown in
  let half = String.length bytes / 2 in
  let feed s = W.feed d (Bytes.of_string s) ~len:(String.length s) in
  feed (String.sub bytes 0 half);
  checkb "torn frame -> None" (W.next d = None);
  feed (String.sub bytes half (String.length bytes - half));
  (match W.next d with
  | Some m -> Alcotest.(check string) "completed after the rest" (render W.Shutdown) (render m)
  | None -> Alcotest.fail "frame never completed");
  checkb "drained" (W.next d = None)

let corrupt_on s =
  let d = W.create_decoder () in
  W.feed d (Bytes.of_string s) ~len:(String.length s);
  match W.next d with
  | exception W.Corrupt _ -> true
  | Some _ | None -> false

let test_decoder_corrupt () =
  checkb "garbage length header" (corrupt_on "abc\n{}\n");
  checkb "payload with no msg shape" (corrupt_on "2\n{}\n");
  let alien = {|{"v":99,"msg":"shutdown"}|} in
  checkb "foreign protocol version"
    (corrupt_on (Fmt.str "%d\n%s\n" (String.length alien) alien))

(* ------------------------------------------------------------------ *)
(* Deterministic dealing *)

let test_deal_contract () =
  let xs = List.init 10 Fun.id in
  let chunks = Exec.Shard.deal ~shards:3 xs in
  checki "one chunk per shard" 3 (List.length chunks);
  checkb "concatenation preserves order" (List.concat chunks = xs);
  checkb "deterministic" (Exec.Shard.deal ~shards:3 xs = chunks);
  (* More shards than tasks: trailing chunks may be empty, nothing lost. *)
  let sparse = Exec.Shard.deal ~shards:5 [ 1; 2; 3 ] in
  checki "still one chunk per shard" 5 (List.length sparse);
  checkb "nothing lost" (List.concat sparse = [ 1; 2; 3 ]);
  checkb "shards < 1 rejected"
    (match Exec.Shard.deal ~shards:0 xs with
    | exception Invalid_argument _ -> true
    | _ -> false)

let qcheck_deal_balanced =
  qtest ~count:100 "shard: deal is balanced and order-preserving"
    QCheck2.Gen.(pair (int_range 1 8) (small_list small_int))
    (fun (shards, xs) ->
      let chunks = Exec.Shard.deal ~shards xs in
      let sizes = List.map List.length chunks in
      let mx = List.fold_left max 0 sizes
      and mn = List.fold_left min max_int sizes in
      List.length chunks = shards
      && List.concat chunks = xs
      && mx - mn <= 1)

(* ------------------------------------------------------------------ *)
(* Journal merge: serial-byte reproduction under duplicates + torn lines *)

let entry_line (e : Exec.Journal.entry) = Exec.Journal.entry_to_line e ^ "\n"

let qcheck_merge_reproduces_serial_bytes =
  qtest ~count:30 "shard: merge reproduces serial journal bytes"
    QCheck2.Gen.(pair (int_range 1 4) (list_size (int_range 1 25) small_nat))
    (fun (shards, vals) ->
      let entries =
        List.mapi
          (fun i v ->
            {
              Exec.Journal.key = Fmt.str "k%03d" i;
              attempts = 1;
              outcome = Exec.Outcome.to_json (fun x -> J.Int x) (Ok v);
            })
          vals
      in
      let serial = String.concat "" (List.map entry_line entries) in
      let base = Filename.temp_file "crush-merge" ".jsonl" in
      Fun.protect
        ~finally:(fun () ->
          rm base;
          List.iter
            (fun i -> rm (Exec.Shard.shard_journal base i))
            (List.init shards Fun.id))
        (fun () ->
          let chunks = Exec.Shard.deal ~shards entries in
          let n_stale = ref 0 in
          List.iteri
            (fun i chunk ->
              let oc = open_out_bin (Exec.Shard.shard_journal base i) in
              output_string oc "not a journal line\n";
              List.iteri
                (fun j (e : Exec.Journal.entry) ->
                  (* A superseded record from a killed-and-resent task:
                     the later line must win byte-for-byte. *)
                  if j mod 3 = 0 then begin
                    incr n_stale;
                    output_string oc
                      (entry_line { e with attempts = 7; outcome = J.Int (-1) })
                  end;
                  output_string oc (entry_line e))
                chunk;
              (* A worker SIGKILLed mid-append leaves a torn last line. *)
              (match chunk with
              | [] -> ()
              | e :: _ ->
                  let line = entry_line { e with Exec.Journal.key = "torn" } in
                  output_string oc (String.sub line 0 (String.length line / 2)));
              close_out oc)
            chunks;
          let tbl, dups =
            Exec.Shard.collect
              (List.init shards (Exec.Shard.shard_journal base))
          in
          let missing =
            Exec.Shard.write_merged ~into:base
              ~keys:(List.map (fun (e : Exec.Journal.entry) -> e.key) entries)
              tbl
          in
          missing = [] && dups >= !n_stale && read_file base = serial))

(* ------------------------------------------------------------------ *)
(* Taxonomy: the two process-death classes *)

let test_outcome_worker_classes () =
  let lost = Exec.Outcome.Worker_lost { shard = 2; reason = "signal 9" } in
  let killed = Exec.Outcome.Worker_killed { shard = 0; after_s = 1.5 } in
  Alcotest.(check string) "lost class" "worker-lost" (Exec.Outcome.class_name lost);
  Alcotest.(check string) "killed class" "worker-killed" (Exec.Outcome.class_name killed);
  checki "lost exit code" 17 (Exec.Outcome.exit_code lost);
  checki "killed exit code" 17 (Exec.Outcome.exit_code killed);
  checkb "lost is transient" (Exec.Outcome.is_transient lost);
  checkb "killed is transient" (Exec.Outcome.is_transient killed);
  List.iter
    (fun o ->
      let enc = Exec.Outcome.to_json (fun v -> J.Int v) o in
      checkb "json round-trip"
        (Exec.Outcome.of_json J.to_int enc = Some o))
    [ lost; killed ];
  let s =
    Exec.Outcome.summarize [ Ok 1; Job_timeout { cycles = 5 }; lost; killed ]
  in
  checki "worker death dominates the summary exit code" 17
    (Exec.Outcome.summary_exit_code s)

(* ------------------------------------------------------------------ *)
(* Atomic report writes *)

let test_write_atomic () =
  let dir = Filename.get_temp_dir_name () in
  let path = Filename.temp_file "crush-atomic" ".json" in
  let leftovers () =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           let full = Filename.concat dir f in
           String.length full > String.length path
           && String.sub full 0 (String.length path) = path)
  in
  Fun.protect
    ~finally:(fun () -> rm path)
    (fun () ->
      Exec.Journal.write_atomic path (fun oc -> output_string oc "hello\n");
      Alcotest.(check string) "content" "hello\n" (read_file path);
      checkb "no temp residue" (leftovers () = []);
      (* A failing writer must leave the old file intact and clean up. *)
      checkb "writer exception propagates"
        (match
           Exec.Journal.write_atomic path (fun _ -> failwith "boom")
         with
        | () -> false
        | exception Failure _ -> true);
      Alcotest.(check string) "old content survives" "hello\n" (read_file path);
      checkb "no temp residue after failure" (leftovers () = []))

(* ------------------------------------------------------------------ *)
(* Reducer wall-clock deadline: stop, keep best-so-far *)

let test_reduce_deadline_best_so_far () =
  let g () =
    Crush.Faults.inject
      (Crush.Paper_examples.fig1 ())
      (Crush.Faults.Overallocated_credits 2)
  in
  (* Count the deadline polls one baseline simulation consumes, then
     arm a deadline that comes due just after the baseline — fully
     deterministic, no wall clock involved. *)
  let base_polls = ref 0 in
  ignore
    (Exec.Reduce.simulate
       ~deadline:(fun () ->
         incr base_polls;
         false)
       ~max_cycles:20_000 (g ()));
  let budget = !base_polls + 1 in
  let polls = ref 0 in
  let deadline () =
    incr polls;
    !polls > budget
  in
  match Exec.Reduce.minimize ~max_cycles:20_000 ~deadline (g ()) with
  | None -> Alcotest.fail "deadline discarded the baseline"
  | Some r ->
      checkb "timed_out flagged" r.Exec.Reduce.timed_out;
      checkb "spent less than the default budget" (r.Exec.Reduce.evals < 250);
      (* The best-so-far circuit still trips the same invariant. *)
      (match Exec.Reduce.simulate ~max_cycles:20_000 r.Exec.Reduce.graph with
      | Some v ->
          Alcotest.(check string) "same invariant"
            r.Exec.Reduce.violation.Sim.Sanitizer.invariant
            v.Sim.Sanitizer.invariant
      | None -> Alcotest.fail "best-so-far no longer trips the invariant")

(* ------------------------------------------------------------------ *)
(* End to end: real forked workers *)

let worker_args = [ "__worker"; "--kind"; "test" ]

let sum_task ?(sleep_ms = 0) i =
  let n = i + 3 in
  {
    Exec.Supervisor.key = Fmt.str "sum:%02d" i;
    spec =
      J.Obj
        [
          ("op", J.String "sum"); ("n", J.Int n); ("sleep_ms", J.Int sleep_ms);
        ];
  }

(** The serial truth: the exact journal a [--jobs 1] supervised run
    writes for the same keys. *)
let write_serial_journal path tasks =
  let results =
    Exec.Campaign.map_outcomes ~jobs:1
      ~sup:(Exec.Campaign.supervision ~retries:0 ~journal:path ())
      ~key:(fun (t : Exec.Supervisor.task) -> t.key)
      ~encode:(fun v -> J.Int v)
      ~decode:J.to_int
      (fun ~deadline:_ (t : Exec.Supervisor.task) ->
        match spec_field "n" t.spec with
        | Some n -> Exec.Outcome.Ok (sum_to n)
        | None -> Exec.Outcome.Validation_error { message = "no n" })
      tasks
  in
  ignore results

let decode_outcome enc = Exec.Outcome.of_json J.to_int enc

let outcome_classes (r : Exec.Supervisor.result) =
  List.map
    (fun (k, _, enc) ->
      match decode_outcome enc with
      | Some o -> Exec.Outcome.class_name o
      | None -> Fmt.str "undecodable:%s" k)
    r.outcomes

let test_e2e_clean_matches_serial () =
  with_temp_journal (fun journal ->
      let tasks = List.init 8 (fun i -> sum_task i) in
      let r =
        Exec.Supervisor.run ~shards:2 ~retries:1 ~journal ~worker_args ~tasks
          ()
      in
      Alcotest.(check (list string))
        "all ok"
        (List.map (fun _ -> "ok") tasks)
        (outcome_classes r);
      checki "every task resolved" 8 (List.length r.outcomes);
      let serial = journal ^ ".serial" in
      write_serial_journal serial tasks;
      Alcotest.(check string) "merged journal bit-identical to serial" (read_file serial)
        (read_file journal);
      (* A rerun against the same journal resumes every key. *)
      let r2 =
        Exec.Supervisor.run ~shards:2 ~retries:1 ~journal ~worker_args ~tasks
          ()
      in
      checki "all keys resumed" 8 r2.stats.Exec.Supervisor.n_resumed;
      Alcotest.(check string) "journal unchanged by the resume" (read_file serial)
        (read_file journal))

let test_e2e_chaos_kills_mid_sweep () =
  with_temp_journal (fun journal ->
      (* Enough sleep per job that the seeded kill thresholds always
         find a busy victim mid-sweep. *)
      let tasks = List.init 12 (fun i -> sum_task ~sleep_ms:30 i) in
      let r =
        Exec.Supervisor.run ~shards:2 ~retries:2 ~seed:1 ~chaos_kills:2
          ~backoff_s:0.05 ~journal ~worker_args ~tasks ()
      in
      checki "both chaos kills delivered" 2
        r.stats.Exec.Supervisor.n_chaos_kills;
      checkb "killed workers respawned"
        (r.stats.Exec.Supervisor.n_respawns >= 1);
      checkb "all ok despite the kills"
        (List.for_all (fun c -> c = "ok") (outcome_classes r));
      let serial = journal ^ ".serial" in
      write_serial_journal serial tasks;
      Alcotest.(check string) "merged journal still bit-identical to serial"
        (read_file serial) (read_file journal))

let test_e2e_worker_lost_and_harvest () =
  with_temp_journal (fun journal ->
      let boom =
        {
          Exec.Supervisor.key = "boom";
          spec = J.Obj [ ("op", J.String "exit"); ("code", J.Int 3) ];
        }
      in
      let tasks = [ sum_task 0; boom; sum_task 1 ] in
      let r =
        Exec.Supervisor.run ~shards:1 ~retries:0 ~backoff_s:0.05 ~journal
          ~worker_args ~tasks ()
      in
      Alcotest.(check (list string))
        "classes"
        [ "ok"; "worker-lost"; "ok" ]
        (outcome_classes r);
      checkb "the death was not supervisor-initiated"
        (r.stats.Exec.Supervisor.n_lost >= 1);
      checki "poisoned past the retry budget" 1
        r.stats.Exec.Supervisor.n_poisoned;
      (* The completed-before-death key was harvested from the shard
         journal, and the poisoned key is quarantined. *)
      let q =
        Exec.Journal.load_quarantine (Exec.Journal.quarantine_path journal)
      in
      checkb "quarantine names the lost key"
        (List.exists (fun (k, _, c) -> k = "boom" && c = "worker-lost") q))

let test_e2e_hang_preempted_by_heartbeat () =
  with_temp_journal (fun journal ->
      let tasks =
        [
          {
            Exec.Supervisor.key = "hang:injected";
            spec = J.Obj [ ("op", J.String "hang") ];
          };
        ]
      in
      let r =
        Exec.Supervisor.run ~shards:1 ~retries:0 ~heartbeat_s:0.3
          ~backoff_s:0.05 ~max_respawns:1 ~journal ~worker_args ~tasks ()
      in
      checkb "hang classified worker-killed"
        (outcome_classes r = [ "worker-killed" ]);
      checkb "the kill was preemptive" (r.stats.Exec.Supervisor.n_preempted >= 1);
      match r.outcomes with
      | [ (_, _, enc) ] -> (
          match decode_outcome enc with
          | Some (Exec.Outcome.Worker_killed { after_s; _ }) ->
              checkb "after_s recorded" (after_s > 0.0)
          | _ -> Alcotest.fail "expected Worker_killed payload")
      | _ -> Alcotest.fail "expected exactly one outcome")

(* A worker that closes its protocol pipe but keeps running must be
   classified as lost at once, not after its sleep: both pools stop a
   worker by SIGKILL before they reap it. *)
let close_pipe_spec =
  J.Obj [ ("op", J.String "close-pipe"); ("sleep_ms", J.Int 30_000) ]

let test_e2e_closed_pipe_lost_promptly () =
  with_temp_journal (fun journal ->
      let tasks =
        [ { Exec.Supervisor.key = "close-pipe"; spec = close_pipe_spec } ]
      in
      let t0 = Unix.gettimeofday () in
      let r =
        Exec.Supervisor.run ~shards:1 ~retries:0 ~heartbeat_s:0.3
          ~backoff_s:0.05 ~max_respawns:1 ~journal ~worker_args ~tasks ()
      in
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check (list string))
        "classes" [ "worker-lost" ] (outcome_classes r);
      checkb
        (Fmt.str "classified in %.1fs, not after the 30 s sleep" dt)
        (dt < 5.0))

let test_workers_closed_pipe_lost_promptly () =
  let w =
    Serve.Workers.create ~binary:Sys.executable_name ~argv_tail:worker_args
      ~heartbeat_s:0.0 ~grace_s:60.0 ~n:1
  in
  Fun.protect
    ~finally:(fun () -> ignore (Serve.Workers.shutdown w ~timeout_s:5.0))
    (fun () ->
      let deadline = Unix.gettimeofday () +. 60.0 in
      let run key spec =
        match Serve.Workers.acquire w ~deadline with
        | None -> Alcotest.fail "no slot"
        | Some slot ->
            Fun.protect
              ~finally:(fun () -> Serve.Workers.release w slot)
              (fun () ->
                fst (Serve.Workers.run_job w slot ~key ~spec ~deadline))
      in
      let t0 = Unix.gettimeofday () in
      (match run "close-pipe" close_pipe_spec with
      | Exec.Outcome.Worker_lost _ -> ()
      | o ->
          Alcotest.failf "expected worker-lost, got %s"
            (Exec.Outcome.class_name o));
      (match run "next" (sum_task 4).spec with
      | Exec.Outcome.Ok (J.Int v) -> checki "next job on the slot" (sum_to 7) v
      | o -> Alcotest.failf "next job: %s" (Exec.Outcome.class_name o));
      let dt = Unix.gettimeofday () -. t0 in
      checkb
        (Fmt.str "both jobs done in %.1fs, not after the 30 s sleep" dt)
        (dt < 5.0))

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "wire: channel write/read round-trip" `Quick
      test_wire_channel_roundtrip;
    Alcotest.test_case "wire: decoder reassembles byte-sized chunks" `Quick
      test_decoder_byte_at_a_time;
    Alcotest.test_case "wire: torn frame waits for the rest" `Quick
      test_decoder_incomplete_frame;
    Alcotest.test_case "wire: corrupt frames raise" `Quick test_decoder_corrupt;
    Alcotest.test_case "deal: contiguous, balanced, deterministic" `Quick
      test_deal_contract;
    qcheck_deal_balanced;
    qcheck_merge_reproduces_serial_bytes;
    Alcotest.test_case "outcome: worker-lost/killed taxonomy" `Quick
      test_outcome_worker_classes;
    Alcotest.test_case "journal: write_atomic leaves no residue" `Quick
      test_write_atomic;
    Alcotest.test_case "reduce: deadline keeps the best-so-far" `Quick
      test_reduce_deadline_best_so_far;
    Alcotest.test_case "e2e: sharded run bit-identical to serial + resume"
      `Quick test_e2e_clean_matches_serial;
    Alcotest.test_case "e2e: chaos kills mid-sweep stay bit-identical" `Quick
      test_e2e_chaos_kills_mid_sweep;
    Alcotest.test_case "e2e: worker death harvested and quarantined" `Quick
      test_e2e_worker_lost_and_harvest;
    Alcotest.test_case "e2e: hard hang preempted by heartbeat watchdog" `Quick
      test_e2e_hang_preempted_by_heartbeat;
    Alcotest.test_case "e2e: worker with a closed pipe lost promptly" `Quick
      test_e2e_closed_pipe_lost_promptly;
    Alcotest.test_case "workers: closed pipe lost promptly, slot reused"
      `Quick test_workers_closed_pipe_lost_promptly;
  ]
