(** Multi-process shard supervisor.  See the interface for the fault
    model and the merge-determinism contract. *)

type task = { key : string; spec : Jsonl.t }

type stats = {
  n_tasks : int;
  n_resumed : int;
  n_chaos_kills : int;
  n_preempted : int;
  n_lost : int;
  n_respawns : int;
  n_retired : int;
  n_poisoned : int;
  merged_dups : int;
  n_resume_dups : int;
}

type result = { outcomes : (string * int * Jsonl.t) list; stats : stats }

(* Relative timers (heartbeat silence, hard timeout, backoff) read the
   monotonic clock: a wall-clock step must not fire or starve them. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Worker-side plumbing                                                *)

type job_ctx = { key : string; heartbeat : unit -> unit }

type worker_opts = {
  kind : string;
  shard : int;
  journal : string option;
  fsync : bool;
  flags : (string * string) list;
}

let worker_opts_of_argv argv =
  let kind = ref "" in
  let shard = ref 0 in
  let journal = ref None in
  let fsync = ref false in
  let flags = ref [] in
  let n = Array.length argv in
  let i = ref 2 in
  (* argv.(0) is the binary, argv.(1) the "__worker" marker *)
  while !i < n do
    (match argv.(!i) with
    | "--kind" when !i + 1 < n ->
        incr i;
        kind := argv.(!i)
    | "--shard" when !i + 1 < n ->
        incr i;
        shard := Option.value (int_of_string_opt argv.(!i)) ~default:0
    | "--journal" when !i + 1 < n ->
        incr i;
        journal := Some argv.(!i)
    | "--fsync" -> fsync := true
    | "--opt" when !i + 1 < n -> (
        incr i;
        let kv = argv.(!i) in
        match String.index_opt kv '=' with
        | Some eq ->
            flags :=
              ( String.sub kv 0 eq,
                String.sub kv (eq + 1) (String.length kv - eq - 1) )
              :: !flags
        | None -> flags := (kv, "") :: !flags)
    | _ -> ());
    incr i
  done;
  {
    kind = !kind;
    shard = !shard;
    journal = !journal;
    fsync = !fsync;
    flags = List.rev !flags;
  }

let flag opts name = List.assoc_opt name opts.flags
let flag_float opts name = Option.bind (flag opts name) float_of_string_opt
let flag_int opts name = Option.bind (flag opts name) int_of_string_opt

let worker_main ~opts ~run () =
  (* The supervisor dying must not SIGPIPE-kill us mid-journal-append;
     writes to the dead pipe fail with EPIPE instead, and we exit. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  (* Claim the protocol pipe, then alias fd 1 to stderr: a stray
     [print_string] anywhere in task code lands in the worker's stderr
     instead of corrupting the frame stream. *)
  let proto_fd = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  let out = Unix.out_channel_of_descr proto_fd in
  let jw = Option.map (Journal.open_append ~fsync:opts.fsync) opts.journal in
  let bye () =
    Option.iter Journal.close jw;
    exit 0
  in
  let send msg =
    try Wire.write out msg with Sys_error _ | Unix.Unix_error _ -> bye ()
  in
  send (Wire.Hello { pid = Unix.getpid (); shard = opts.shard });
  let rec loop () =
    match Wire.read stdin with
    | None | Some Wire.Shutdown -> bye ()
    | Some (Wire.Job { key; spec }) ->
        let last = ref Float.neg_infinity in
        let heartbeat () =
          let now = now () in
          if now -. !last >= 0.1 then begin
            last := now;
            send (Wire.Heartbeat { key })
          end
        in
        (* First beat marks job receipt, so the supervisor's silence
           clock starts from actual work, not from dispatch. *)
        heartbeat ();
        let outcome, attempts =
          match run ~ctx:{ key; heartbeat } spec with
          | r -> r
          | exception e ->
              (Outcome.to_json (fun _ -> Jsonl.Null) (Outcome.of_exn e), 1)
        in
        Option.iter
          (fun jw -> Journal.record jw { Journal.key; attempts; outcome })
          jw;
        send (Wire.Result { key; attempts; outcome });
        loop ()
    | Some (Wire.Hello _ | Wire.Heartbeat _ | Wire.Result _) -> loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)

type kill_mark = Preempt | Chaos

type worker = {
  shard : int;
  mutable proc : Worker.t option;  (** [Some] while the process is live *)
  mutable queue : task list;
  mutable inflight : task option;
  mutable started : float;
  mutable last_beat : float;
  mutable respawns : int;
  mutable respawn_at : float option;
  mutable retired : bool;
  mutable kill_mark : kill_mark option;
}

(* Deterministic jitter in [0, 1): a pure hash of (seed, shard, n), so
   backoff schedules are reproducible under a fixed seed while still
   decorrelating shards that died together. *)
let jitter01 ~seed ~shard ~n =
  let h = ref ((seed * 2654435761) lxor (shard * 40503) lxor (n * 2246822519)) in
  h := !h lxor (!h lsr 15);
  h := !h * 2654435761;
  h := !h lxor (!h lsr 13);
  float_of_int (abs !h mod 65536) /. 65536.0

let backoff_delay ~backoff_s ~seed ~shard ~n =
  let expo = backoff_s *. (2.0 ** float_of_int (min 6 (n - 1))) in
  expo *. (0.75 +. (0.5 *. jitter01 ~seed ~shard ~n))

let run ?(shards = 2) ?hard_timeout_s ?(heartbeat_s = 10.0) ?(retries = 1)
    ?(max_respawns = 5) ?(backoff_s = 0.05) ?(seed = 0) ?journal
    ?(fsync = false) ?(chaos_kills = 0) ?(verbose = false) ~worker_args
    ~(tasks : task list) () =
  if shards < 1 then invalid_arg (Fmt.str "Supervisor.run: shards %d < 1" shards);
  let say fmt =
    if verbose then Fmt.epr fmt
    else Format.ifprintf Format.err_formatter fmt
  in
  let prog = Sys.executable_name in
  let saved_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let n_total = List.length tasks in
  let keys = List.map (fun (t : task) -> t.key) tasks in
  let shard_paths =
    match journal with
    | None -> []
    | Some j -> List.init shards (Shard.shard_journal j)
  in
  (* Resume: a key already recorded in the merged journal or any shard
     journal of a previous (crashed) run is not re-run — mirroring the
     serial campaign's resume-from-journal. *)
  let prior, n_resume_dups =
    match journal with
    | None -> (Hashtbl.create 1, 0)
    | Some j -> Shard.collect (j :: shard_paths)
  in
  let results : (string, int * Jsonl.t) Hashtbl.t = Hashtbl.create n_total in
  let resolved = ref 0 in
  let n_resumed = ref 0 in
  List.iter
    (fun (t : task) ->
      match Hashtbl.find_opt prior t.key with
      | Some (e : Journal.entry) ->
          Hashtbl.replace results t.key (e.Journal.attempts, e.Journal.outcome);
          incr resolved;
          incr n_resumed
      | None -> ())
    tasks;
  let fresh =
    List.filter (fun (t : task) -> not (Hashtbl.mem results t.key)) tasks
  in
  let n_fresh = List.length fresh in
  (* Which shard currently owns each pending key — poison records name
     the shard that last held the task. *)
  let task_shard : (string, int) Hashtbl.t = Hashtbl.create n_total in
  let deaths : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let poisoned : (string * int * string) list ref = ref [] in
  let n_chaos_kills = ref 0 in
  let n_preempted = ref 0 in
  let n_lost = ref 0 in
  let n_respawns = ref 0 in
  let n_retired = ref 0 in
  let chunks = Shard.deal ~shards fresh in
  let workers =
    Array.of_list
      (List.mapi
         (fun shard chunk ->
           List.iter
             (fun (t : task) -> Hashtbl.replace task_shard t.key shard)
             chunk;
           {
             shard;
             proc = None;
             queue = chunk;
             inflight = None;
             started = 0.0;
             last_beat = 0.0;
             respawns = 0;
             respawn_at = None;
             retired = false;
             kill_mark = None;
           })
         chunks)
  in
  let spawn (w : worker) =
    let h =
      Worker.spawn ~binary:prog
        (worker_args
        @ [ "--shard"; string_of_int w.shard ]
        @ (match journal with
          | Some j -> [ "--journal"; Shard.shard_journal j w.shard ]
          | None -> [])
        @ if fsync then [ "--fsync" ] else [])
    in
    w.proc <- Some h;
    w.inflight <- None;
    w.started <- 0.0;
    w.last_beat <- now ();
    w.respawn_at <- None;
    w.kill_mark <- None;
    say "supervisor: shard %02d spawned (pid %d)@." w.shard (Worker.pid h)
  in
  let dispatch (w : worker) h =
    match w.queue with
    | [] -> ()
    | t :: rest ->
        w.queue <- rest;
        w.inflight <- Some t;
        let t0 = now () in
        w.started <- t0;
        w.last_beat <- t0;
        (* A broken pipe surfaces as EOF on the next read. *)
        ignore (Worker.send h (Wire.Job { key = t.key; spec = t.spec }))
  in
  let record_result key attempts outcome =
    if not (Hashtbl.mem results key) then begin
      Hashtbl.replace results key (attempts, outcome);
      incr resolved
    end
  in
  let poison (w_shard : int) (t : task) ~attempts outcome =
    let oj = Outcome.to_json (fun _ -> Jsonl.Null) outcome in
    record_result t.key attempts oj;
    poisoned := (t.key, attempts, Outcome.class_name outcome) :: !poisoned;
    say "supervisor: key %s poisoned after %d death(s) (%s, shard %02d)@."
      t.key attempts (Outcome.class_name outcome) w_shard
  in
  (* Graceful degradation: a worker over its respawn budget is retired
     and its queue dealt to the surviving shards, shrinking the pool
     instead of aborting the sweep. *)
  let redistribute (from : worker) =
    let targets =
      Array.to_list workers
      |> List.filter (fun w -> (not w.retired) && w.shard <> from.shard)
    in
    match targets with
    | [] ->
        List.iter
          (fun (t : task) ->
            let attempts =
              1 + Option.value (Hashtbl.find_opt deaths t.key) ~default:0
            in
            poison from.shard t ~attempts
              (Outcome.Worker_lost
                 { shard = from.shard; reason = "worker pool exhausted" }))
          from.queue;
        from.queue <- []
    | _ ->
        let n_targets = List.length targets in
        List.iteri
          (fun i (t : task) ->
            let tgt = List.nth targets (i mod n_targets) in
            Hashtbl.replace task_shard t.key tgt.shard;
            tgt.queue <- tgt.queue @ [ t ])
          from.queue;
        from.queue <- []
  in
  let harvest (w : worker) =
    (* A worker killed between its journal append and its Result frame
       has still completed the job: re-read its shard journal and adopt
       anything finished but unreported. *)
    match journal with
    | None -> ()
    | Some j -> (
        match w.inflight with
        | None -> ()
        | Some t -> (
            let tbl, _ = Shard.collect [ Shard.shard_journal j w.shard ] in
            match Hashtbl.find_opt tbl t.key with
            | Some (e : Journal.entry) ->
                record_result t.key e.Journal.attempts e.Journal.outcome;
                w.inflight <- None
            | None -> ()))
  in
  (* The worker's pipe closed, or it spoke garbage: stop it (SIGKILL
     before the reap, so a worker that closed its pipe but kept running
     cannot stall the supervisor) and classify the death. *)
  let worker_died (w : worker) h =
    let reason = Worker.stop h in
    w.proc <- None;
    let mark = w.kill_mark in
    w.kill_mark <- None;
    (match mark with
    | Some Preempt -> incr n_preempted
    | Some Chaos -> incr n_chaos_kills
    | None -> incr n_lost);
    say "supervisor: shard %02d died (%s%s)@." w.shard reason
      (match mark with
      | Some Preempt -> ", preempted"
      | Some Chaos -> ", chaos kill"
      | None -> "");
    harvest w;
    (match w.inflight with
    | Some t when not (Hashtbl.mem results t.key) ->
        w.inflight <- None;
        let d = 1 + Option.value (Hashtbl.find_opt deaths t.key) ~default:0 in
        Hashtbl.replace deaths t.key d;
        if d > retries then
          let after_s = now () -. w.started in
          poison w.shard t ~attempts:d
            (match mark with
            | Some Preempt -> Outcome.Worker_killed { shard = w.shard; after_s }
            | _ -> Outcome.Worker_lost { shard = w.shard; reason })
        else
          (* Put the victim key back at the head: the resend preserves
             in-shard submission order for everything still queued. *)
          w.queue <- t :: w.queue
    | _ -> w.inflight <- None);
    let unresolved_here = w.queue <> [] in
    if w.respawns >= max_respawns then begin
      w.retired <- true;
      incr n_retired;
      say "supervisor: shard %02d retired after %d respawns; pool shrinks@."
        w.shard w.respawns;
      redistribute w
    end
    else if unresolved_here || !resolved < n_total then begin
      w.respawns <- w.respawns + 1;
      incr n_respawns;
      let delay =
        backoff_delay ~backoff_s ~seed ~shard:w.shard ~n:w.respawns
      in
      w.respawn_at <- Some (now () +. delay);
      say "supervisor: shard %02d respawn %d in %.2fs@." w.shard w.respawns
        delay
    end
    else w.retired <- true
  in
  (* Chaos self-test: SIGKILL seeded victims at result-count thresholds
     strictly inside the campaign, simulating an external killer (OOM,
     operator) rather than our own preemption.  A worker already marked
     for a kill is not a candidate: until its EOF is read it still looks
     live, and a second kill on it would count as one death. *)
  let chaos_thresholds =
    List.init chaos_kills (fun i -> max 1 ((i + 1) * n_fresh / (chaos_kills + 2)))
  in
  let chaos_fired = ref 0 in
  let results_seen = ref 0 in
  let try_chaos_kill () =
    if !chaos_fired < chaos_kills then
      let due =
        !results_seen >= List.nth chaos_thresholds !chaos_fired
      in
      if due then begin
        let unmarked =
          Array.to_list workers
          |> List.filter (fun w -> w.proc <> None && w.kill_mark = None)
        in
        let candidates =
          match List.filter (fun w -> w.inflight <> None) unmarked with
          | [] -> unmarked
          | busy -> busy
        in
        match candidates with
        | [] -> ()
        | cs ->
            let pick =
              int_of_float
                (jitter01 ~seed ~shard:1009 ~n:!chaos_fired
                *. float_of_int (List.length cs))
            in
            let victim = List.nth cs (min pick (List.length cs - 1)) in
            incr chaos_fired;
            victim.kill_mark <- Some Chaos;
            Option.iter
              (fun h ->
                say "supervisor: chaos kill %d -> shard %02d (pid %d)@."
                  !chaos_fired victim.shard (Worker.pid h);
                Worker.kill h)
              victim.proc
      end
  in
  let handle_msg (w : worker) = function
    | Wire.Hello { pid = _; shard = _ } -> w.last_beat <- now ()
    | Wire.Heartbeat _ -> w.last_beat <- now ()
    | Wire.Result { key; attempts; outcome } ->
        w.last_beat <- now ();
        (match w.inflight with
        | Some t when t.key = key -> w.inflight <- None
        | _ -> ());
        record_result key attempts outcome;
        incr results_seen;
        try_chaos_kill ()
    | Wire.Job _ | Wire.Shutdown -> ()
  in
  let rec pump (w : worker) h =
    match Worker.recv h ~timeout:0.0 with
    | Worker.Msg m ->
        handle_msg w m;
        pump w h
    | Worker.Idle -> ()
    | Worker.Closed -> worker_died w h
    | Worker.Corrupt why ->
        say "supervisor: shard %02d protocol corrupt (%s); killing@." w.shard
          why;
        w.kill_mark <- Some Preempt;
        worker_died w h
  in
  let tick () =
    let t = now () in
    Array.iter
      (fun w ->
        (* Respawns come due. *)
        (match w.respawn_at with
        | Some at when t >= at && not w.retired -> spawn w
        | _ -> ());
        (* Preemptive supervision of the in-flight job: a worker that
           stops heartbeating (a hang that never polls the cooperative
           watchdog) or blows the hard deadline is SIGKILLed — the
           guarantee the in-process watchdog cannot give. *)
        match w.proc with
        | None -> ()
        | Some h ->
            (if w.kill_mark = None && w.inflight <> None then
               let silent =
                 heartbeat_s > 0.0 && t -. w.last_beat > heartbeat_s
               in
               let overdue =
                 match hard_timeout_s with
                 | Some limit -> t -. w.started > limit
                 | None -> false
               in
               if silent || overdue then begin
                 w.kill_mark <- Some Preempt;
                 say "supervisor: shard %02d wedged (%s); SIGKILL pid %d@."
                   w.shard
                   (if silent then
                      Fmt.str "no heartbeat for %.1fs" (t -. w.last_beat)
                    else "hard deadline")
                   (Worker.pid h);
                 Worker.kill h
               end);
            (* Feed idle workers. *)
            if w.inflight = None && w.queue <> [] then dispatch w h)
      workers
  in
  (* Spawn only shards that have work: fewer tasks than shards must not
     fork idle processes. *)
  Array.iter (fun w -> if w.queue <> [] then spawn w) workers;
  let live () =
    Array.to_list workers
    |> List.filter_map (fun w -> Option.map (fun h -> (w, h)) w.proc)
  in
  let pool_gone () =
    Array.for_all
      (fun w -> w.proc = None && (w.retired || w.respawn_at = None))
      workers
  in
  while !resolved < n_total do
    if pool_gone () then
      (* Everything died and nothing will respawn: classify the
         leftovers so the campaign still drains with a report. *)
      List.iter
        (fun (t : task) ->
          if not (Hashtbl.mem results t.key) then
            let shard =
              Option.value (Hashtbl.find_opt task_shard t.key) ~default:0
            in
            let attempts =
              1 + Option.value (Hashtbl.find_opt deaths t.key) ~default:0
            in
            poison shard t ~attempts
              (Outcome.Worker_lost { shard; reason = "worker pool exhausted" }))
        tasks
    else begin
      tick ();
      let live = live () in
      let ready = Worker.readable (List.map snd live) ~timeout:0.05 in
      List.iter (fun (w, h) -> if List.memq h ready then pump w h) live
    end
  done;
  (* Drain the pool: ask nicely, then make sure. *)
  ignore (Worker.drain (List.map snd (live ())) ~timeout_s:2.0);
  ignore (Sys.signal Sys.sigpipe saved_sigpipe);
  (* Deterministic merge: shard files (plus any previous merged journal)
     under submission-key order; poison records and streamed results
     backfill keys the files do not carry. *)
  let merged_dups = ref 0 in
  (match journal with
  | None -> ()
  | Some j ->
      let tbl, dups = Shard.collect (j :: shard_paths) in
      merged_dups := dups;
      List.iter
        (fun (t : task) ->
          if not (Hashtbl.mem tbl t.key) then
            match Hashtbl.find_opt results t.key with
            | Some (attempts, outcome) ->
                Hashtbl.replace tbl t.key { Journal.key = t.key; attempts; outcome }
            | None -> ())
        tasks;
      let missing = Shard.write_merged ~fsync ~into:j ~keys:keys tbl in
      if missing <> [] then
        Fmt.epr "supervisor: %d key(s) missing from merged journal@."
          (List.length missing);
      (* Quarantine manifest, exactly as the serial campaign writes it:
         one line per non-ok key of this batch. *)
      let failed =
        List.filter_map
          (fun (t : task) ->
            match Hashtbl.find_opt tbl t.key with
            | Some (e : Journal.entry) -> (
                match
                  Option.bind (Jsonl.member "class" e.Journal.outcome)
                    Jsonl.to_str
                with
                | Some "ok" -> None
                | Some cls -> Some (t.key, e.Journal.attempts, cls)
                | None -> None)
            | None -> None)
          tasks
      in
      Journal.write_quarantine ~journal:j ~batch:keys failed);
  let outcomes =
    List.map
      (fun (t : task) ->
        match Hashtbl.find_opt results t.key with
        | Some (attempts, outcome) -> (t.key, attempts, outcome)
        | None ->
            (* Unreachable: the loop above only exits once every key is
               resolved or poisoned. *)
            ( t.key,
              0,
              Outcome.to_json
                (fun _ -> Jsonl.Null)
                (Outcome.Worker_lost { shard = 0; reason = "unresolved" }) ))
      tasks
  in
  {
    outcomes;
    stats =
      {
        n_tasks = n_total;
        n_resumed = !n_resumed;
        n_chaos_kills = !n_chaos_kills;
        n_preempted = !n_preempted;
        n_lost = !n_lost;
        n_respawns = !n_respawns;
        n_retired = !n_retired;
        n_poisoned = List.length !poisoned;
        merged_dups = !merged_dups;
        n_resume_dups;
      };
  }
