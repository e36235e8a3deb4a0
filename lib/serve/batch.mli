(** The in-process batch execution tier: cache-warm, short-deadline,
    unmonitored jobs run on the shared {!Exec.Pool} domain pool over
    cached {!Sim.Engine.image}s (fresh engine state per run, shared
    compiled topology), while cold compiles and long/poison-risk jobs
    keep the borrowed-slot worker-process pool ({!Workers}).

    Admission is the pure routing table {!tier_of} — pinned row by row
    in the test suite — evaluated atomically against the per-tier
    in-flight watermark.  Both tiers classify through
    {!Exec.Campaign.run_with_retries}, so the {!Api.status_of_outcome}
    table stays the single authority over HTTP statuses.

    The image cache warms by {e priming}: after the worker tier
    completes a job successfully, the server compiles that circuit once
    in process ({!prime}, single-flight) so subsequent requests for the
    same circuit — any seed/fuel — are batch-eligible. *)

type tier = Batch_tier | Worker_tier

val tier_name : tier -> string

(** The routing table.  [warm]: a compiled image is resident.
    [sanitize]: the job wants the elastic-protocol sanitizers.
    [deadline_left_s]/[long_deadline_s]: remaining request budget vs the
    cooperative-preemption bound a pool domain may be occupied for.
    [queue]/[watermark]: batch jobs in flight vs the spill threshold.
    Batch iff warm, unmonitored, short-deadline and under watermark. *)
val tier_of :
  warm:bool ->
  sanitize:bool ->
  deadline_left_s:float ->
  long_deadline_s:float ->
  queue:int ->
  watermark:int ->
  tier

type config = {
  domains : int;            (** pool domains, >= 1 *)
  watermark : int;          (** max batch jobs in flight before spilling
                                to the worker tier, >= 1 *)
  image_cache_bytes : int;  (** image cache bound, in
                                {!Sim.Engine.image_bytes} *)
  long_deadline_s : float;  (** routing threshold: jobs with more
                                remaining deadline than this stay on the
                                preemptible worker tier *)
}

type t

val create : config -> t

(** The tier's image cache (for stats and tests). *)
val images : t -> Sim.Engine.image Cache.t

(** Batch jobs currently in flight. *)
val in_flight : t -> int

type decision =
  | Run_batch of Sim.Engine.image
      (** admitted: a batch slot is held until {!run} returns *)
  | Run_worker

(** Route one request: counting image-cache probe + {!tier_of} +
    in-flight accounting, atomically.  [key] is the job's
    {!Api.circuit_digest}. *)
val admit :
  t -> sanitize:bool -> deadline_left_s:float -> string -> decision

(** Execute a batch-admitted job over its image on the domain pool,
    blocking until done.  [deadline_at] is the absolute request deadline
    (Unix time); the run is classified exactly like a worker-tier run.
    Releases the admission slot. *)
val run :
  t ->
  deadline_at:float ->
  Sim.Engine.image ->
  Api.job ->
  Exec.Jsonl.t Exec.Outcome.t

(** Compile-and-cache a circuit the worker tier just proved out.
    Single-flight; failures abandon rather than poison.  Counts no
    image-cache hit or miss: {!admit} counted this request's. *)
val prime : t -> Api.job -> unit

type counters = {
  runs : int;            (** completed batch-tier executions *)
  in_flight_now : int;
  spills : int;          (** batch-eligible jobs sent to the worker tier
                             by the watermark *)
  primes : int;          (** successful image-cache fills *)
  prime_failures : int;
}

val stats : t -> counters

(** Refuse new admissions and join the pool domains.  The server drains
    connection threads first, so the pool is idle by the time this
    runs. *)
val shutdown : t -> unit
