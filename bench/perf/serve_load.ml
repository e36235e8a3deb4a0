(** serve-batch and serve-worker: a closed loop of API clients against a
    real [crush serve] daemon.  Each client sends its next request only
    when the previous reply has arrived. *)

module J = Exec.Jsonl

(** What the benchmark keeps of one reply. *)
type reply = {
  job : Gen.job;
  ms : float;
  done_at : float;
  ok : bool;  (** 200, code ok, verified correct *)
  cache : string;
  tier : string;
}

let member_str k j =
  Option.value ~default:"" (Option.bind (J.member k j) J.to_str)

let correct_result j =
  Option.bind (J.member "correct" j) J.to_bool = Some true

let send ~port (job : Gen.job) =
  let result, dt = Measure.time (fun () -> Client.post ~port (Gen.body job)) in
  let done_at = Measure.now () in
  let ok, cache, tier =
    match result with
    | Ok (200, body) -> (
        match J.parse body with
        | Ok j ->
            let result = J.member "result" j in
            ( member_str "code" j = "ok"
              && Option.fold ~none:false ~some:correct_result result,
              member_str "cache" j,
              member_str "tier" j )
        | Error _ -> (false, "", ""))
    | Ok _ | Error _ -> (false, "", "")
  in
  (* A failed request misses every latency target: it counts at its
     whole deadline. *)
  let ms = if ok then dt *. 1000.0 else float_of_int job.Gen.deadline_ms in
  { job; ms; done_at; ok; cache; tier }

(** Run [warm] on a fresh daemon five times, draining all but the last
    daemon; the drain errors of the discarded daemons count. *)
let setup_daemon ~name ~errors warm =
  let n = ref 0 in
  Workload.repeat_setup 5
    ~dispose:(fun d -> errors := Client.stop d @ !errors)
    (fun () ->
      incr n;
      let file = Printf.sprintf "%s-%d.jsonl" name !n in
      let journal = Filename.concat Workload.out_dir file in
      let d = Client.spawn ~journal in
      warm d;
      d)

(** Per-layer values read off the replies and the [/v1/stats] deltas. *)
let reply_layers replies s0 s1 =
  let p50 pred =
    Measure.median
      (List.filter_map
         (fun r -> if r.ok && pred r then Some r.ms else None)
         replies)
  in
  let delta path =
    float_of_int (Client.int_at path s1 - Client.int_at path s0)
  in
  let rate num den = if den = 0.0 then 0.0 else num /. den in
  let hits = delta [ "cache"; "hits" ] in
  let misses = delta [ "cache"; "misses" ] in
  let image_hits = delta [ "image_cache"; "hits" ] in
  let image_misses = delta [ "image_cache"; "misses" ] in
  [
    ("serve.hit_ms_p50", p50 (fun r -> r.cache = "hit"));
    ("serve.batch_ms_p50", p50 (fun r -> r.cache = "miss" && r.tier = "batch"));
    ( "serve.worker_ms_p50",
      p50 (fun r -> r.cache = "miss" && r.tier = "worker") );
    ("serve.result_cache_hit_rate", rate hits (hits +. misses));
    ( "serve.image_cache_hit_rate",
      rate image_hits (image_hits +. image_misses) );
    ("serve.batch_share", rate (delta [ "batch"; "runs" ]) misses);
    ("serve.batch_spills", delta [ "batch"; "spills" ]);
    ("serve.primes", delta [ "batch"; "primes" ]);
    ("serve.worker_respawns", delta [ "workers"; "respawns" ]);
    ("serve.shed", delta [ "shed" ]);
  ]

(** Traced run only: the daemon's per-request calls replayed in this
    process on jobs the window sent -- decode and digest, compile, run
    (over a cached image, or in full and through a worker process),
    journal append. *)
let replay ~name ~errors ~worker_tier jobs =
  let journal_path =
    Filename.concat Workload.out_dir (name ^ "-replay.jsonl")
  in
  if Sys.file_exists journal_path then Sys.remove journal_path;
  let journal = Exec.Journal.open_append journal_path in
  let images = Hashtbl.create 8 in
  let pool =
    if not worker_tier then None
    else
      Some
        (Serve.Workers.create ~binary:(Client.cli ())
           ~argv_tail:[ "__worker"; "--kind"; "serve" ]
           ~heartbeat_s:5.0 ~grace_s:5.0 ~n:1)
  in
  let never () = false in
  let ipc = ref [] in
  let verify tag (o : J.t Exec.Outcome.t) =
    let correct =
      match o with Exec.Outcome.Ok j -> correct_result j | _ -> false
    in
    Workload.check errors correct (tag ^ ": replayed job is not correct")
  in
  let compile tag job =
    Span.run ~tag "serve.job_compile" (fun () -> Serve.Job.compile job)
  in
  let image tag job =
    let key = Serve.Api.circuit_digest job in
    match Hashtbl.find_opt images key with
    | Some im -> im
    | None ->
        let g =
          match compile tag job with
          | Ok g -> g
          | Error _ -> failwith (tag ^ ": compile failed")
        in
        let im = Span.run ~tag "engine.image" (fun () -> Sim.Engine.image g) in
        Hashtbl.replace images key im;
        im
  in
  let run_on_worker tag pool job =
    ignore (compile tag job);
    let o, run_s =
      Measure.time (fun () ->
          Span.run ~tag "serve.job_run" (fun () ->
              Serve.Job.run ~deadline:never job))
    in
    verify tag o;
    let deadline () = Unix.gettimeofday () +. 60.0 in
    let slot =
      match Serve.Workers.acquire pool ~deadline:(deadline ()) with
      | Some s -> s
      | None -> failwith "no worker slot"
    in
    let (o, _), job_s =
      Measure.time (fun () ->
          Span.run ~tag "serve.run_job" (fun () ->
              Fun.protect
                ~finally:(fun () -> Serve.Workers.release pool slot)
                (fun () ->
                  Serve.Workers.run_job pool slot ~key:tag
                    ~spec:(Serve.Api.job_to_json job) ~deadline:(deadline ()))))
    in
    ipc := ((job_s -. run_s) *. 1000.0) :: !ipc;
    o
  in
  Array.iteri
    (fun i (g : Gen.job) ->
      let tag = Printf.sprintf "%s#%d" name i in
      let job, digest =
        Span.run ~tag "serve.api" (fun () ->
            let job =
              match
                Result.bind (J.parse (Gen.body g)) Serve.Api.job_of_json
              with
              | Ok job -> job
              | Error e -> failwith e
            in
            ignore (Serve.Api.circuit_digest job);
            (job, Serve.Api.digest job))
      in
      let o =
        match pool with
        | None ->
            let image = image tag job in
            Span.run ~tag "serve.run_on_image" (fun () ->
                Serve.Job.run_on_image ~deadline:never job image)
        | Some pool -> run_on_worker tag pool job
      in
      verify tag o;
      Span.run ~tag "exec.journal_append" (fun () ->
          Exec.Journal.record journal
            {
              Exec.Journal.key = digest;
              attempts = 1;
              outcome = Exec.Outcome.to_json Fun.id o;
            }))
    jobs;
  Exec.Journal.close journal;
  Option.iter
    (fun pool ->
      Workload.check errors
        (Serve.Workers.shutdown pool ~timeout_s:10.0 = 0)
        "replay worker pool did not shut down")
    pool;
  if worker_tier then [ ("serve.ipc_ms", Measure.median !ipc) ] else []

(** A unit's operations and how many succeeded. *)
let ops_of ~class_of replies =
  ( List.map (fun r -> (class_of r, r.ms)) replies,
    List.length (List.filter (fun r -> r.ok) replies) )

(** Read the stats and the daemon's peak memory, drain it, check every
    reply, and in the traced run replay [replay_jobs]. *)
let finish ~name ~worker_tier ~errors ~traced ~setup_s ~d ~s0 ~gc0 ~replies
    ~units ~replay_jobs =
  let s1 = Client.stats ~port:d.Client.port in
  let peak_rss_mb = Measure.peak_rss_mb (string_of_int d.Client.pid) in
  let failures =
    List.filter_map
      (fun r ->
        if r.ok then None else Some ("request failed: " ^ Gen.body r.job))
      replies
  in
  errors := Client.stop d @ failures @ !errors;
  let layers = reply_layers replies s0 s1 in
  let replayed =
    if not traced then []
    else
      let replayed = replay ~name ~errors ~worker_tier replay_jobs in
      if worker_tier then replayed
      else
        (* what a batch-tier miss costs beyond running the job itself *)
        ( "serve.overhead_ms",
          List.assoc "serve.batch_ms_p50" layers
          -. Measure.median (Span.durations_ms "serve.run_on_image") )
        :: replayed
  in
  {
    Workload.attempted = List.length replies;
    failed = List.length failures;
    errors = !errors;
    units;
    e2e = Workload.e2e ~setup_s ~units ~peak_rss_mb;
    layers = layers @ replayed @ Workload.gc_layers gc0;
  }

(** Equal time slices of the serve-batch window, the units its
    percentiles and throughput are taken over; one more slice before
    them warms up. *)
let slices = 10

(** serve-batch: 2 connections; CRUSH circuits of four small kernels
    whose images are resident before timing, fresh seeds, one request
    in three repeating an earlier one.  Every miss runs on the
    in-process batch tier over a cached image and every repeat is a
    result-cache hit, so HTTP, admission, both caches and the batch pool
    are a visible share of the latency. *)
let batch ~seed ~seconds ~traced =
  let name = "serve-batch" in
  let errors = ref [] in
  let warm d =
    Array.iter
      (fun k ->
        let r = send ~port:d.Client.port (Gen.warm_job k ~technique:"crush") in
        if not r.ok then failwith ("warm-up failed: " ^ k))
      Gen.batch_kernels;
    (* Ready when every warmed circuit is a resident image (primes run
       after the warm-up replies). *)
    let resident () =
      Client.int_at [ "image_cache"; "entries" ]
        (Client.stats ~port:d.Client.port)
    in
    while resident () < Array.length Gen.batch_kernels do
      Unix.sleepf 0.005
    done
  in
  let d, setup_s = setup_daemon ~name ~errors warm in
  let s0 = Client.stats ~port:d.Client.port and gc0 = Gc.quick_stat () in
  let jobs = Gen.batch_jobs ~seed (int_of_float (seconds *. 2000.0) + 1000) in
  let slice_s = seconds /. float_of_int slices in
  let sent = ref 0 and m = Mutex.create () and replies = ref [] in
  let t0 = Measure.now () in
  let next () =
    Mutex.protect m (fun () ->
        let over = Measure.now () -. t0 >= seconds +. slice_s in
        if over || !sent >= Array.length jobs then None
        else begin
          incr sent;
          Some jobs.(!sent - 1)
        end)
  in
  let rec connection () =
    match next () with
    | None -> ()
    | Some job ->
        let r = send ~port:d.Client.port job in
        Mutex.protect m (fun () -> replies := r :: !replies);
        connection ()
  in
  List.iter Thread.join (List.init 2 (fun _ -> Thread.create connection ()));
  let replies = List.rev !replies in
  let slice r = min slices (int_of_float ((r.done_at -. t0) /. slice_s)) in
  let class_of r = r.job.Gen.kernel ^ ":" ^ r.cache in
  let units =
    List.init (slices + 1) (fun k ->
        let ops, ok =
          ops_of ~class_of (List.filter (fun r -> slice r = k) replies)
        in
        { Workload.ops; ok; secs = slice_s })
  in
  finish ~name ~worker_tier:false ~errors ~traced ~setup_s ~d ~s0 ~gc0 ~replies
    ~units ~replay_jobs:(Array.sub jobs 0 (min !sent 400))

(** serve-worker: 1 connection; whole passes over all 66 circuits (11
    kernels x {bb, fast} x {naive, crush, inorder}) with fresh seeds and
    one in three sanitized.  The deadline is over the batch threshold,
    so every request compiles, shares, simulates and verifies in a
    worker process.  One connection, because two repeated far worse. *)
let worker ~seed ~seconds ~traced =
  let name = "serve-worker" in
  let errors = ref [] in
  let warm d =
    let r = send ~port:d.Client.port (Gen.warm_job "gsum" ~technique:"naive") in
    if not r.ok then failwith "warm-up failed"
  in
  let d, setup_s = setup_daemon ~name ~errors warm in
  let s0 = Client.stats ~port:d.Client.port and gc0 = Gc.quick_stat () in
  let class_of r =
    let j = r.job in
    Printf.sprintf "%s:%s:%s:%b" j.Gen.kernel j.Gen.strategy j.Gen.technique
      j.Gen.sanitize
  in
  let replies = ref [] in
  let units =
    Workload.whole_units ~seconds ~min_units:2 (fun pass ->
        let r =
          Array.to_list
            (Array.map (send ~port:d.Client.port) (Gen.worker_pass ~seed ~pass))
        in
        replies := !replies @ r;
        ops_of ~class_of r)
  in
  finish ~name ~worker_tier:true ~errors ~traced ~setup_s ~d ~s0 ~gc0
    ~replies:!replies ~units ~replay_jobs:(Gen.worker_pass ~seed ~pass:0)
