(** The [crush serve] daemon: a fault-tolerant multi-tenant
    compile-and-simulate service over the hand-rolled {!Http} layer.

    {2 Request lifecycle}

    Accept -> deadline-bounded header/body read ({!Http.read_request})
    -> route -> job decode ({!Api.job_of_json}) -> admission (drain
    check, request deadline, per-tenant token buckets, queue watermark)
    -> content-hash result cache ({!Cache}, single-flight) -> tier routing
    ({!Batch.admit}: cache-warm, unmonitored, short-deadline jobs run in
    process over a compiled {!Sim.Engine.image}; everything else
    dispatches onto a borrowed {!Workers} slot) -> outcome mapped to
    HTTP via {!Api.status_of_outcome} -> journal append -> respond.
    After a worker-tier success the server primes the batch tier's
    image {!Cache} in process, so repeat circuits graduate to the batch
    tier.  [/v1/stats/stream] tails a bounded ring of per-second
    aggregates ({!Statstream}) down a chunked response.

    {2 Fault domains}

    Each connection is one thread and one request; each job runs in a
    separate worker process.  A malicious or crashing input costs its
    own request ([Worker_lost], 503) and nothing else — the acceptance
    bar this module exists to meet.

    {2 Overload}

    Admission sheds with 429 + [Retry-After] when a tenant bucket runs
    dry or the dispatch queue crosses its watermark; the hint combines
    the bucket's own refill time with the supervisor's seeded-jitter
    backoff ({!Exec.Supervisor.backoff_delay}) so stampeding clients
    decorrelate.

    {2 Drain}

    {!request_stop} (or {!Exec.Interrupt.triggered}, polled by the
    accept loop) stops accepting, lets in-flight requests finish, shuts
    the worker pool down, and reports leftover connections, surviving
    workers and leaked fds. *)

type config = {
  host : string;              (** bind address, default 127.0.0.1 *)
  port : int;                 (** 0 = ephemeral, read back via {!port} *)
  binary : string;            (** worker binary ([__worker] mode) *)
  workers : int;              (** worker process pool size *)
  max_conns : int;            (** concurrent connection threads *)
  queue_depth : int;          (** dispatch-wait watermark before 429 *)
  cache_capacity : int;       (** result cache bound, in entries *)
  req_rate : float;           (** per-tenant requests/second *)
  req_burst : float;
  fuel_rate : float;          (** per-tenant simulation cycles/second *)
  fuel_burst : float;
  max_body : int;
  max_header : int;
  header_timeout_s : float;   (** slow-loris bound on the whole read *)
  default_deadline_s : float; (** when the client sends no deadline_ms *)
  max_deadline_s : float;     (** ceiling on client deadlines *)
  heartbeat_s : float;
  grace_s : float;            (** hard-kill slack past the deadline *)
  drain_timeout_s : float;
  seed : int;                 (** Retry-After jitter seed *)
  journal : string option;    (** request journal (JSONL append) *)
  verbose : bool;
  batch_domains : int;        (** in-process batch tier domains; 0 disables *)
  batch_watermark : int;      (** batch in-flight cap before spilling *)
  image_cache_bytes : int;    (** compiled-image cache byte budget *)
  batch_long_deadline_s : float;
      (** jobs with more deadline left than this stay on the worker
          tier (a pool domain is only cooperatively preemptible) *)
  stream_period_s : float;    (** [/v1/stats/stream] sample period *)
  stream_history : int;       (** stream ring capacity (samples) *)
}

val default_config : binary:string -> config

type t

(** Bind and listen; spawns nothing yet (workers spawn on first use).
    @raise Unix.Unix_error if the address cannot be bound. *)
val create : config -> t

val port : t -> int

type drain = {
  conns_left : int;    (** connection threads still live at timeout *)
  workers_alive : int; (** workers that survived pool shutdown *)
  leaked_fds : int;    (** fd-count delta vs. the post-bind baseline;
                           negative means fds were reclaimed *)
}

(** Serve until {!request_stop} or a {!Exec.Interrupt} signal, then
    drain.  Blocks; run it in a thread for in-process tests. *)
val run : t -> drain

(** Ask the accept loop to begin draining (idempotent, thread-safe). *)
val request_stop : t -> unit

(** Live worker pids (the chaos harness SIGKILLs one). *)
val worker_pids : t -> int list
