(** The serve daemon; see the interface for the request lifecycle. *)

module J = Exec.Jsonl
module Outcome = Exec.Outcome

type config = {
  host : string;
  port : int;
  binary : string;
  workers : int;
  max_conns : int;
  queue_depth : int;
  cache_capacity : int;
  req_rate : float;
  req_burst : float;
  fuel_rate : float;
  fuel_burst : float;
  max_body : int;
  max_header : int;
  header_timeout_s : float;
  default_deadline_s : float;
  max_deadline_s : float;
  heartbeat_s : float;
  grace_s : float;
  drain_timeout_s : float;
  seed : int;
  journal : string option;
  verbose : bool;
  batch_domains : int;
  batch_watermark : int;
  image_cache_bytes : int;
  batch_long_deadline_s : float;
  stream_period_s : float;
  stream_history : int;
}

let default_config ~binary =
  {
    host = "127.0.0.1";
    port = 0;
    binary;
    workers = 2;
    max_conns = 32;
    queue_depth = 16;
    cache_capacity = 256;
    req_rate = 50.0;
    req_burst = 100.0;
    fuel_rate = 5e6;
    fuel_burst = 2e7;
    max_body = 1 lsl 20;
    max_header = 8192;
    header_timeout_s = 2.0;
    default_deadline_s = 10.0;
    max_deadline_s = 60.0;
    heartbeat_s = 5.0;
    grace_s = 2.0;
    drain_timeout_s = 10.0;
    seed = 1;
    journal = None;
    verbose = false;
    batch_domains = 2;
    batch_watermark = 8;
    image_cache_bytes = 256 * 1024 * 1024;
    batch_long_deadline_s = 15.0;
    stream_period_s = 1.0;
    stream_history = 120;
  }

type tenant = { req : Bucket.t; fuel : Bucket.t; mutable sheds : int }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  pool : Workers.t;
  batch : Batch.t option;  (** in-process tier; [None] = disabled *)
  stream : Statstream.t;
  cache : J.t Cache.t;  (** results; each weighs 1 *)
  m : Mutex.t;  (** tenants, counters, seq *)
  tenants : (string, tenant) Hashtbl.t;
  codes : (string, int) Hashtbl.t;  (** API code -> responses sent *)
  mutable stopping : bool;
  mutable conns : int;
  mutable waiting : int;  (** requests queued for a worker slot *)
  mutable n_received : int;
  mutable n_shed : int;
  mutable seq : int;
  started_at : float;
  baseline_fds : int;
  jm : Mutex.t;  (** request journal writes *)
  jw : Exec.Journal.t option;
  journal_dups : int;
  mutable n_journal_errors : int;
  mutable journal_failstreak : int;  (** consecutive append failures *)
  mutable journal_degraded : bool;
      (** after 3 consecutive append failures the journal is declared
          lost: requests keep serving (un-audited) instead of paying a
          doomed syscall + 503 each *)
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let now () = Unix.gettimeofday ()

let count_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Array.length entries
  | exception Sys_error _ -> -1

let create cfg =
  (* A client hanging up mid-response must surface as EPIPE on the
     write (swallowed in {!Http.write_response}), not SIGKILL the whole
     daemon via the default SIGPIPE disposition. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.set_close_on_exec fd;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port) in
  Unix.bind fd addr;
  Unix.listen fd 64;
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> cfg.port
  in
  (* Count preexisting duplicate-key records so operators see replay
     anomalies in /v1/stats instead of a lost stderr line. *)
  let journal_dups =
    match cfg.journal with
    | Some path when Sys.file_exists path ->
        snd (Exec.Journal.load_with_duplicates path)
    | _ -> 0
  in
  let jw = Option.map (Exec.Journal.open_append ~fsync:false) cfg.journal in
  let argv_tail = [ "__worker"; "--kind"; "serve" ] in
  (* The batch tier spawns its domains now, before the fd baseline is
     read, so any runtime bookkeeping they allocate is baselined. *)
  let batch =
    if cfg.batch_domains <= 0 then None
    else
      Some
        (Batch.create
           {
             Batch.domains = cfg.batch_domains;
             watermark = cfg.batch_watermark;
             image_cache_bytes = cfg.image_cache_bytes;
             long_deadline_s = cfg.batch_long_deadline_s;
           })
  in
  {
    cfg;
    listen_fd = fd;
    bound_port;
    pool =
      Workers.create ~binary:cfg.binary ~argv_tail
        ~heartbeat_s:cfg.heartbeat_s ~grace_s:cfg.grace_s ~n:cfg.workers;
    batch;
    stream = Statstream.create ~capacity:(max 1 cfg.stream_history);
    cache = Cache.create ~max_weight:cfg.cache_capacity ~weight:(fun _ -> 1);
    m = Mutex.create ();
    tenants = Hashtbl.create 16;
    codes = Hashtbl.create 16;
    stopping = false;
    conns = 0;
    waiting = 0;
    n_received = 0;
    n_shed = 0;
    seq = 0;
    started_at = now ();
    baseline_fds = count_fds ();
    jm = Mutex.create ();
    jw;
    journal_dups;
    n_journal_errors = 0;
    journal_failstreak = 0;
    journal_degraded = false;
  }

let port t = t.bound_port
let worker_pids t = Workers.pids t.pool
let request_stop t = locked t (fun () -> t.stopping <- true)

(* ------------------------------------------------------------------ *)
(* Bookkeeping *)

let count_code t code =
  locked t (fun () ->
      Hashtbl.replace t.codes code
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.codes code)))

(** Append to the request journal.  [`Ok] also covers "no journal
    configured" and "journal already declared lost" (degraded mode);
    [`Failed] means this request's outcome was not durably recorded and
    the response must say so. *)
let journal_record t ~key ~attempts ~outcome =
  match t.jw with
  | None -> `Ok
  | Some w ->
      Mutex.lock t.jm;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.jm)
        (fun () ->
          if t.journal_degraded then `Ok
          else
            match
              Exec.Journal.record w { Exec.Journal.key; attempts; outcome }
            with
            | () ->
                t.journal_failstreak <- 0;
                `Ok
            | exception (Sys_error _ | Unix.Unix_error _) ->
                t.n_journal_errors <- t.n_journal_errors + 1;
                t.journal_failstreak <- t.journal_failstreak + 1;
                if t.journal_failstreak >= 3 then begin
                  t.journal_degraded <- true;
                  Fmt.epr
                    "crush serve: journal lost after %d consecutive append \
                     failures; serving un-audited@."
                    t.journal_failstreak
                end;
                `Failed)

let tenant_of t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tenants name with
      | Some x -> x
      | None ->
          let n = now () in
          let x =
            {
              req = Bucket.create ~rate:t.cfg.req_rate ~burst:t.cfg.req_burst ~now:n;
              fuel =
                Bucket.create ~rate:t.cfg.fuel_rate ~burst:t.cfg.fuel_burst
                  ~now:n;
              sheds = 0;
            }
          in
          Hashtbl.replace t.tenants name x;
          x)

(** Retry-After hint: the bucket's own refill time floored by the
    supervisor's seeded-jitter backoff, so a stampede of identical
    clients decorrelates deterministically. *)
let retry_after_s t ~tenant_name ~(tenant : tenant) ~bucket_wait =
  let n = tenant.sheds in
  let jittered =
    Exec.Supervisor.backoff_delay ~backoff_s:0.05 ~seed:t.cfg.seed
      ~shard:(Hashtbl.hash tenant_name land 0xFFFF)
      ~n:(max 1 (min 8 n))
  in
  Float.max bucket_wait jittered

(* ------------------------------------------------------------------ *)
(* Response bodies *)

let set_field name v fields =
  List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) fields

let respond_json fd ~status ?headers fields =
  Http.write_response fd ~status ?headers (J.to_string (J.Obj fields))

let respond_reject t fd ?retry_after (r : Api.reject) =
  let code = Api.reject_code r in
  count_code t code;
  let headers =
    match retry_after with
    | Some s -> [ ("Retry-After", Fmt.str "%d" (max 1 (int_of_float (Float.ceil s)))) ]
    | None -> []
  in
  (match r with
  | Api.Queue_full | Api.Quota_requests | Api.Quota_fuel | Api.Shutting_down
  | Api.Journal_lost ->
      locked t (fun () -> t.n_shed <- t.n_shed + 1)
  | _ -> ());
  respond_json fd ~status:(Api.reject_status r) ~headers
    [
      ("code", J.String code);
      ("status", J.Int (Api.reject_status r));
      ("message", J.String (Api.reject_message r));
    ]

(** Build the success/outcome body (cache tag patched per responder). *)
let outcome_body ~digest ~cache ~attempts (o : J.t Outcome.t) =
  let status = Api.status_of_outcome o in
  let base =
    [
      ("code", J.String (Api.code_of_outcome o));
      ("status", J.Int status);
      ("digest", J.String digest);
      ("cache", J.String cache);
      ("attempts", J.Int attempts);
      ("outcome", Outcome.to_json Fun.id o);
    ]
  in
  match o with
  | Outcome.Ok payload -> (status, base @ [ ("result", payload) ])
  | _ -> (status, base)

(* ------------------------------------------------------------------ *)
(* Submit *)

let deadline_of_body t body_json =
  let ms = Option.bind (J.member "deadline_ms" body_json) J.to_float in
  let s =
    match ms with
    | Some ms -> Float.min (ms /. 1000.0) t.cfg.max_deadline_s
    | None -> t.cfg.default_deadline_s
  in
  now () +. s

let next_key t ~digest =
  locked t (fun () ->
      t.seq <- t.seq + 1;
      Fmt.str "req-%08d" t.seq)
  ^ ":" ^ digest

(** Shared tail of both execution tiers: journal append, result-cache
    resolution, response fields.  The [Outcome] -> HTTP table stays the
    single authority whichever tier ran the job; the tier only adds a
    diagnostic field to the body. *)
let finish t ~digest ~tier ~key ~attempts (o : J.t Outcome.t) =
  match
    journal_record t ~key ~attempts ~outcome:(Outcome.to_json Fun.id o)
  with
  | `Failed ->
      (* The result exists but its audit record does not: withhold it
         rather than serve an un-journalled answer, and never cache what
         was never recorded. *)
      Cache.abandon t.cache digest;
      Error Api.Journal_lost
  | `Ok ->
      let status, fields = outcome_body ~digest ~cache:"miss" ~attempts o in
      let fields = fields @ [ ("tier", J.String tier) ] in
      (* Deterministic outcomes are cacheable; transient infrastructure
         failures must not poison the digest for the next caller. *)
      if Outcome.is_transient o then Cache.abandon t.cache digest
      else
        Cache.fulfill t.cache digest
          (J.Obj [ ("status", J.Int status); ("body", J.Obj fields) ]);
      Ok (status, fields, Api.code_of_outcome o, tier)

(** Worker tier: dispatch queue watermark, borrow a process slot, run. *)
let run_on_worker t ~digest ~deadline (job : Api.job) =
  let shed reject =
    Cache.abandon t.cache digest;
    Error reject
  in
  let over_watermark =
    locked t (fun () ->
        if t.waiting >= t.cfg.queue_depth then true
        else begin
          t.waiting <- t.waiting + 1;
          false
        end)
  in
  if over_watermark then shed Api.Queue_full
  else begin
    let slot = Workers.acquire t.pool ~deadline in
    locked t (fun () -> t.waiting <- t.waiting - 1);
    match slot with
    | None ->
        shed
          (if locked t (fun () -> t.stopping) then Api.Shutting_down
           else Api.Deadline_exceeded)
    | Some id ->
        let key = next_key t ~digest in
        let timeout_s = Float.max 0.0 (deadline -. now ()) in
        let spec =
          match Api.job_to_json job with
          | J.Obj fields -> J.Obj (fields @ [ ("timeout_s", J.Float timeout_s) ])
          | other -> other
        in
        let o, attempts =
          Fun.protect
            ~finally:(fun () -> Workers.release t.pool id)
            (fun () -> Workers.run_job t.pool id ~key ~spec ~deadline)
        in
        finish t ~digest ~tier:"worker" ~key ~attempts o
  end

(** Batch tier: run in process on the already-held batch slot over the
    cached image ({!Batch.admit} reserved the slot; {!Batch.run}
    releases it). *)
let run_on_batch t b ~digest ~deadline image (job : Api.job) =
  let key = next_key t ~digest in
  let o = Batch.run b ~deadline_at:deadline image job in
  finish t ~digest ~tier:"batch" ~key ~attempts:1 o

(** Run the job as cache leader; returns the response fields.  Always
    resolves the pending cache entry.  Tier routing is {!Batch.tier_of}
    via {!Batch.admit}: cache-warm, unmonitored, short-deadline jobs run
    in process; everything else (and the spill past the batch watermark)
    goes to the worker-process pool. *)
let lead_and_run t ~digest ~deadline (job : Api.job) =
  let decision =
    match t.batch with
    | None -> Batch.Run_worker
    | Some b ->
        Batch.admit b ~sanitize:job.Api.sanitize
          ~deadline_left_s:(deadline -. now ())
          (Api.circuit_digest job)
  in
  match (decision, t.batch) with
  | Batch.Run_batch image, Some b ->
      run_on_batch t b ~digest ~deadline image job
  | _ -> run_on_worker t ~digest ~deadline job

let cached_response ~v =
  match (J.member "status" v, J.member "body" v) with
  | Some s, Some (J.Obj fields) ->
      let status = Option.value ~default:200 (J.to_int s) in
      Some (status, set_field "cache" (J.String "hit") fields)
  | _ -> None

let rec submit_job t fd ~digest ~deadline ~tenant_name job =
  if now () >= deadline then respond_reject t fd Api.Deadline_exceeded
  else
    match Cache.admit t.cache digest with
    | Cache.Hit v -> (
        match cached_response ~v with
        | Some (status, fields) ->
            (match J.member "code" (J.Obj fields) with
            | Some (J.String c) -> count_code t c
            | _ -> ());
            respond_json fd ~status fields
        | None -> respond_reject t fd (Api.Internal "corrupt cache entry"))
    | Cache.Lead -> (
        match lead_and_run t ~digest ~deadline job with
        | Ok (status, fields, code, tier) ->
            count_code t code;
            respond_json fd ~status fields;
            (* Warm the image cache only after a worker process proved
               the circuit out end to end — and after responding, so the
               in-process compile never sits on the response path. *)
            if code = "ok" && tier = "worker" then
              Option.iter (fun b -> Batch.prime b job) t.batch
        | Error reject ->
            let tenant = tenant_of t tenant_name in
            let retry_after =
              if Api.reject_sheddable reject then begin
                locked t (fun () -> tenant.sheds <- tenant.sheds + 1);
                Some (retry_after_s t ~tenant_name ~tenant ~bucket_wait:0.0)
              end
              else None
            in
            respond_reject t fd ?retry_after reject)
    | Cache.Join ->
        (* Single-flight follower: poll for the leader's result under our
           own deadline; a leader that abandons (transient failure) hands
           leadership to the first joiner to notice. *)
        let rec wait () =
          if now () >= deadline then respond_reject t fd Api.Deadline_exceeded
          else
            match Cache.peek t.cache digest with
            | `Ready _ | `Absent ->
                (* Ready resolves to a Hit on re-admission; Absent means
                   the leader abandoned and we may become the leader. *)
                submit_job t fd ~digest ~deadline ~tenant_name job
            | `Pending ->
                Thread.delay 0.005;
                wait ()
        in
        wait ()

let submit t fd (req : Http.request) =
  match J.parse req.Http.body with
  | Error e -> respond_reject t fd (Api.Bad_request ("bad JSON: " ^ e))
  | Ok body_json -> (
      match Api.job_of_json body_json with
      | Error m -> respond_reject t fd (Api.Bad_request m)
      | Ok job ->
          let tenant_name =
            Option.value ~default:"anonymous" (Http.header req "x-tenant")
          in
          if locked t (fun () -> t.stopping) then
            respond_reject t fd ~retry_after:t.cfg.drain_timeout_s
              Api.Shutting_down
          else begin
            let deadline = deadline_of_body t body_json in
            let tenant = tenant_of t tenant_name in
            let tn = now () in
            let shed reject ~bucket_wait =
              locked t (fun () -> tenant.sheds <- tenant.sheds + 1);
              respond_reject t fd
                ~retry_after:(retry_after_s t ~tenant_name ~tenant ~bucket_wait)
                reject
            in
            let req_ok, fuel_ok, req_wait, fuel_wait =
              locked t (fun () ->
                  let fuel_cost = float_of_int (max 1 job.Api.max_cycles) in
                  let r = Bucket.take tenant.req ~now:tn ~cost:1.0 in
                  let f =
                    r && Bucket.take tenant.fuel ~now:tn ~cost:fuel_cost
                  in
                  ( r,
                    f,
                    Bucket.wait_s tenant.req ~now:tn ~cost:1.0,
                    Bucket.wait_s tenant.fuel ~now:tn ~cost:fuel_cost ))
            in
            if not req_ok then shed Api.Quota_requests ~bucket_wait:req_wait
            else if not fuel_ok then shed Api.Quota_fuel ~bucket_wait:fuel_wait
            else begin
              locked t (fun () -> tenant.sheds <- 0);
              submit_job t fd ~digest:(Api.digest job) ~deadline ~tenant_name
                job
            end
          end)

(* ------------------------------------------------------------------ *)
(* Stats *)

let cache_fields (c : Cache.counters) =
  [
    ("hits", J.Int c.hits);
    ("misses", J.Int c.misses);
    ("joins", J.Int c.joins);
    ("evictions", J.Int c.evictions);
    ("entries", J.Int c.entries);
  ]

let stats_json t =
  let spawns, respawns, lost, killed, jobs = Workers.stats t.pool in
  let codes, received, shed, conns, waiting, stopping =
    locked t (fun () ->
        ( Hashtbl.fold (fun k v acc -> (k, J.Int v) :: acc) t.codes []
          |> List.sort compare,
          t.n_received,
          t.n_shed,
          t.conns,
          t.waiting,
          t.stopping ))
  in
  J.Obj
    [
      ("uptime_s", J.Float (now () -. t.started_at));
      ("draining", J.Bool stopping);
      ("received", J.Int received);
      ("shed", J.Int shed);
      ("conns", J.Int conns);
      ("waiting", J.Int waiting);
      ("codes", J.Obj codes);
      ("cache", J.Obj (cache_fields (Cache.stats t.cache)));
      ( "workers",
        J.Obj
          [
            ("pids", J.List (List.map (fun p -> J.Int p) (Workers.pids t.pool)));
            ("spawns", J.Int spawns);
            ("respawns", J.Int respawns);
            ("lost", J.Int lost);
            ("killed", J.Int killed);
            ("jobs", J.Int jobs);
          ] );
      ( "batch",
        match t.batch with
        | None -> J.Obj [ ("enabled", J.Bool false) ]
        | Some b ->
            let s = Batch.stats b in
            J.Obj
              [
                ("enabled", J.Bool true);
                ("domains", J.Int t.cfg.batch_domains);
                ("watermark", J.Int t.cfg.batch_watermark);
                ("long_deadline_s", J.Float t.cfg.batch_long_deadline_s);
                ("in_flight", J.Int s.Batch.in_flight_now);
                ("runs", J.Int s.Batch.runs);
                ("spills", J.Int s.Batch.spills);
                ("primes", J.Int s.Batch.primes);
                ("prime_failures", J.Int s.Batch.prime_failures);
              ] );
      ( "image_cache",
        match t.batch with
        | None -> J.Obj [ ("enabled", J.Bool false) ]
        | Some b ->
            let ic = Cache.stats (Batch.images b) in
            J.Obj
              ((("enabled", J.Bool true) :: cache_fields ic)
              @ [ ("bytes", J.Int ic.weight) ]) );
      ("journal_duplicates", J.Int t.journal_dups);
      ("journal_errors", J.Int (locked t (fun () -> t.n_journal_errors)));
      ("journal_degraded", J.Bool (locked t (fun () -> t.journal_degraded)));
    ]

(* ------------------------------------------------------------------ *)
(* Streaming stats *)

(** One per-second aggregate for the stream ring: tier occupancy, hit
    rates, shed and journal counters.  Cheap enough to build at 1 Hz. *)
let stream_sample t =
  let conns, waiting, received, shed, jerrs =
    locked t (fun () ->
        (t.conns, t.waiting, t.n_received, t.n_shed, t.n_journal_errors))
  in
  let rc = Cache.stats t.cache in
  let _, _, _, _, wjobs = Workers.stats t.pool in
  let rate h m =
    if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
  in
  let batch_fields =
    match t.batch with
    | None ->
        [
          ("batch_in_flight", J.Int 0);
          ("batch_runs", J.Int 0);
          ("batch_spills", J.Int 0);
          ("image_hit_rate", J.Float 0.0);
        ]
    | Some b ->
        let s = Batch.stats b in
        let ic = Cache.stats (Batch.images b) in
        [
          ("batch_in_flight", J.Int s.Batch.in_flight_now);
          ("batch_runs", J.Int s.Batch.runs);
          ("batch_spills", J.Int s.Batch.spills);
          ("image_hit_rate", J.Float (rate ic.Cache.hits ic.Cache.misses));
        ]
  in
  J.Obj
    ([
       ("t", J.Float (now ()));
       ("uptime_s", J.Float (now () -. t.started_at));
       ("conns", J.Int conns);
       ("waiting", J.Int waiting);
       ("received", J.Int received);
       ("shed", J.Int shed);
       ("worker_jobs", J.Int wjobs);
       ("result_hit_rate", J.Float (rate rc.Cache.hits rc.Cache.misses));
       ("journal_errors", J.Int jerrs);
     ]
    @ batch_fields)

(** Tail the sample ring down a chunked response: one NDJSON line per
    sample, backlog first, then live until the client hangs up or the
    server drains.  Holds its connection slot like any other request. *)
let stats_stream t fd =
  if Http.write_chunked_head fd ~status:200 () then begin
    let rec loop seq =
      let next, samples, closed = Statstream.read_from t.stream ~seq in
      let alive =
        List.for_all
          (fun s -> Http.write_chunk fd (J.to_string s ^ "\n"))
          samples
      in
      if not alive then () (* client gone: its problem, not ours *)
      else if closed || locked t (fun () -> t.stopping) then
        ignore (Http.write_chunked_end fd)
      else begin
        Thread.delay 0.05;
        loop next
      end
    in
    loop 0
  end

(* ------------------------------------------------------------------ *)
(* Routing and the accept loop *)

let route t fd (req : Http.request) =
  match (req.Http.meth, req.Http.path) with
  | "POST", "/v1/submit" -> submit t fd req
  | "GET", "/v1/stats" ->
      Http.write_response fd ~status:200 (J.to_string (stats_json t))
  | "GET", "/v1/stats/stream" -> stats_stream t fd
  | "GET", "/v1/healthz" ->
      respond_json fd ~status:200
        [
          ("ok", J.Bool true);
          ("draining", J.Bool (locked t (fun () -> t.stopping)));
        ]
  | _, ("/v1/submit" | "/v1/stats" | "/v1/stats/stream" | "/v1/healthz") ->
      respond_reject t fd Api.Method_not_allowed
  | _ -> respond_reject t fd Api.Route_not_found

let handle_conn t fd =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      locked t (fun () -> t.conns <- t.conns - 1))
    (fun () ->
      locked t (fun () -> t.n_received <- t.n_received + 1);
      let deadline = now () +. t.cfg.header_timeout_s in
      match
        Http.read_request ~max_header:t.cfg.max_header
          ~max_body:t.cfg.max_body ~deadline fd
      with
      | Ok req -> route t fd req
      | Error Http.Closed -> count_code t "client-gone"
      | Error Http.Timeout -> respond_reject t fd Api.Header_timeout
      | Error Http.Too_large -> respond_reject t fd Api.Payload_too_large
      | Error (Http.Malformed m) -> respond_reject t fd (Api.Bad_request m))

let safe_handle t fd =
  try handle_conn t fd
  with e ->
    (* A connection thread must never take the daemon down. *)
    Fmt.epr "crush serve: connection handler: %s@." (Printexc.to_string e);
    (try Unix.close fd with Unix.Unix_error _ -> ())

type drain = { conns_left : int; workers_alive : int; leaked_fds : int }

let run t =
  let stop () = locked t (fun () -> t.stopping) || Exec.Interrupt.triggered () in
  (* The sampler feeds the stream ring one aggregate per period and
     closes it on drain so stream handlers terminate their chunked
     responses. *)
  let sampler =
    Thread.create
      (fun () ->
        let rec go () =
          if not (stop ()) then begin
            Statstream.push t.stream (stream_sample t);
            Thread.delay t.cfg.stream_period_s;
            go ()
          end
        in
        go ();
        Statstream.close t.stream)
      ()
  in
  let rec accept_loop () =
    if not (stop ()) then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ ->
              let admitted =
                locked t (fun () ->
                    if t.conns >= t.cfg.max_conns then false
                    else begin
                      t.conns <- t.conns + 1;
                      true
                    end)
              in
              if admitted then
                ignore (Thread.create (fun () -> safe_handle t fd) ())
              else begin
                (* Connection cap: shed before reading a byte. *)
                locked t (fun () ->
                    t.n_received <- t.n_received + 1;
                    t.n_shed <- t.n_shed + 1);
                count_code t (Api.reject_code Api.Queue_full);
                Http.write_response fd
                  ~status:(Api.reject_status Api.Queue_full)
                  ~headers:[ ("Retry-After", "1") ]
                  (J.to_string
                     (J.Obj
                        [
                          ("code", J.String (Api.reject_code Api.Queue_full));
                          ("status", J.Int 429);
                        ]));
                try Unix.close fd with Unix.Unix_error _ -> ()
              end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  locked t (fun () -> t.stopping <- true);
  (* Drain: in-flight connections finish (workers are still up for
     them), then the pool shuts down, then the fd audit. *)
  let deadline = now () +. t.cfg.drain_timeout_s in
  let rec wait_conns () =
    let left = locked t (fun () -> t.conns) in
    if left = 0 || now () >= deadline then left
    else begin
      Thread.delay 0.01;
      wait_conns ()
    end
  in
  let conns_left = wait_conns () in
  Thread.join sampler;
  (* The batch tier joins its domains only once every connection thread
     is gone: {!Exec.Pool.shutdown} requires an idle pool, and a wedged
     connection could still hold a batch slot. *)
  (match t.batch with
  | Some b when conns_left = 0 -> Batch.shutdown b
  | Some _ | None -> ());
  let workers_alive =
    Workers.shutdown t.pool
      ~timeout_s:(Float.max 0.5 (deadline -. now ()))
  in
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* A journal that died mid-run may fail its final flush too; the
     drain audit must still complete. *)
  Option.iter
    (fun w ->
      try Exec.Journal.close w
      with Sys_error _ | Unix.Unix_error _ -> Exec.Journal.close_noerr w)
    t.jw;
  let leaked_fds =
    if t.baseline_fds < 0 then 0
    else
      (* The baseline included the listen socket and the journal fd,
         both now closed. *)
      count_fds () - (t.baseline_fds - 1 - if t.jw = None then 0 else 1)
  in
  { conns_left; workers_alive; leaked_fds }
