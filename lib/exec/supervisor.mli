(** Crash-isolated multi-process shard runner.

    The in-process supervised campaign ({!Campaign.map_outcomes}) keeps
    one poisoned {e job} from destroying a batch, but its watchdog is
    cooperative: a hard hang that never polls the deadline, a stack
    overflow, an OOM kill or a segfault takes down the whole process and
    every in-flight result.  This module makes each shard of a campaign
    a separate {e fault domain}: the supervisor spawns N copies of the
    current binary in a hidden worker mode ({!Worker}, the process
    handle it shares with the serve daemon's pool), speaks
    length-prefixed JSONL over pipes ({!Wire}), and treats worker death
    as one more classifiable outcome.

    {2 Supervision tree}

    - {b Dealing}: tasks are dealt into contiguous deterministic chunks
      ({!Shard.deal}); each worker owns one chunk and one private
      schema-versioned journal ([<journal>.shard-NN]).
    - {b Heartbeats + monotonic clock}: workers heartbeat while inside a
      job (piggybacked on the engine's cooperative deadline polls).  A
      worker silent longer than [heartbeat_s] — or in flight longer than
      [hard_timeout_s] — is SIGKILLed {e preemptively}; the in-flight
      key is retried and, past the retry budget, recorded as
      [Worker_killed].  Both timers, and the respawn backoff, read the
      monotonic clock.
    - {b Death classification}: a worker whose pipe closes — it died on
      its own (signal, OOM, nonzero exit), or closed its stdout and kept
      running — is stopped with {!Worker.stop} (SIGKILL, then reap, so a
      live one cannot stall the supervisor) and yields [Worker_lost] for
      its in-flight key after the retry budget; completed-but-unreported
      work is harvested from the shard journal first, so a kill between
      journal append and result send loses nothing.
    - {b Backoff}: dead workers respawn after exponential backoff with
      seeded, deterministic jitter; past [max_respawns] the worker is
      retired and its queue dealt to the survivors (graceful pool
      shrink), never aborting the sweep.
    - {b Merge}: when every key is resolved, shard journals are merged
      into the campaign journal in submission-key order, torn-line
      tolerant, duplicate-key last-write-wins ({!Shard}); failed keys
      land in the usual [.quarantine] manifest.

    {2 Determinism contract}

    Workers run the exact serial retry loop
    ({!Campaign.run_with_retries}) and journal through the exact serial
    codec, so for deterministic tasks the merged journal of [--shards N]
    is byte-identical to the journal of a serial [--jobs 1] run — even
    when workers were chaos-killed mid-campaign, because a re-sent key
    re-runs from scratch and journals the same bytes.  The crash-chaos
    self-test asserts exactly this. *)

(** One unit of work: a campaign-unique stable [key] (the journal resume
    identity) and a self-describing [spec] the worker's [run] callback
    decodes. *)
type task = { key : string; spec : Jsonl.t }

type stats = {
  n_tasks : int;
  n_resumed : int;      (** keys skipped via journal resume *)
  n_chaos_kills : int;  (** seeded self-test kills actually delivered *)
  n_preempted : int;    (** workers SIGKILLed for deadline/heartbeat *)
  n_lost : int;         (** worker deaths we did not initiate *)
  n_respawns : int;
  n_retired : int;      (** workers retired over the respawn budget *)
  n_poisoned : int;     (** keys quarantined after the retry budget *)
  merged_dups : int;    (** duplicate records superseded by the merge *)
  n_resume_dups : int;
      (** duplicate-key records superseded while loading the prior
          journals at resume — a replay/merge anomaly count surfaced in
          campaign summaries (a handful is a normal crashed-and-resumed
          run; many means two live campaigns share one journal) *)
}

type result = {
  outcomes : (string * int * Jsonl.t) list;
      (** (key, attempts, encoded outcome) in submission order *)
  stats : stats;
}

(** Run [tasks] across [shards] worker processes.

    [worker_args] is the argv tail that puts the current binary
    ([Sys.executable_name]) into its worker mode — conventionally
    [["__worker"; "--kind"; <dispatcher>; "--opt"; "k=v"; ...]]; the
    supervisor appends [--shard N], [--journal <shard path>] and
    [--fsync] per worker.

    [hard_timeout_s] is the preemptive per-job wall-clock ceiling
    (callers usually derive it from the cooperative [timeout_s] with
    generous slack — the cooperative watchdog should classify first);
    [heartbeat_s] is the silence ceiling ([<= 0.] disables).  [retries]
    bounds per-key worker deaths before the key is poisoned.
    [chaos_kills] arms the crash-chaos self-test: that many seeded
    SIGKILLs are delivered to random busy workers at deterministic
    result-count thresholds mid-campaign, each to a worker not already
    marked for a kill; [stats.n_chaos_kills] counts the deaths they
    caused.

    Never raises on worker failure; every task resolves to an encoded
    outcome.  @raise Invalid_argument if [shards < 1]. *)
val run :
  ?shards:int ->
  ?hard_timeout_s:float ->
  ?heartbeat_s:float ->
  ?retries:int ->
  ?max_respawns:int ->
  ?backoff_s:float ->
  ?seed:int ->
  ?journal:string ->
  ?fsync:bool ->
  ?chaos_kills:int ->
  ?verbose:bool ->
  worker_args:string list ->
  tasks:task list ->
  unit ->
  result

(** {2 Backoff math}

    Exposed for reuse by other schedulers (the serve layer derives its
    [Retry-After] overload hints from the same formula, so client
    backoff and worker respawn decorrelate the same way). *)

(** Exponential backoff with seeded jitter: [backoff_s * 2^(min 6 (n-1))]
    scaled by a deterministic factor in [0.75, 1.25), a pure hash of
    (seed, shard, n). *)
val backoff_delay : backoff_s:float -> seed:int -> shard:int -> n:int -> float

(** {2 Worker side} *)

(** Handed to the worker's [run] callback: the in-flight key and a
    rate-limited heartbeat to call from the job's deadline predicate (or
    any inner loop) so the supervisor knows the job is alive. *)
type job_ctx = { key : string; heartbeat : unit -> unit }

(** Parsed worker-mode argv. *)
type worker_opts = {
  kind : string;            (** which dispatcher should handle the jobs *)
  shard : int;
  journal : string option;  (** this shard's private journal *)
  fsync : bool;
  flags : (string * string) list;  (** the [--opt k=v] pairs, in order *)
}

(** Parse [Sys.argv] of a process launched in worker mode
    ([argv.(1) = "__worker"]).  Unknown arguments are ignored. *)
val worker_opts_of_argv : string array -> worker_opts

val flag : worker_opts -> string -> string option
val flag_float : worker_opts -> string -> float option
val flag_int : worker_opts -> string -> int option

(** Worker event loop: announce [Hello], then serve [Job] frames from
    stdin until [Shutdown] or EOF (supervisor death), calling [run] per
    job.  [run] returns the encoded outcome and the attempts consumed —
    use {!Campaign.run_with_retries} so sharded attempts match serial
    ones.  Each finished job is appended to the shard journal {e before}
    its result frame is sent (the harvest-on-death invariant).  The
    process's fd 1 is re-pointed at stderr so stray prints cannot
    corrupt the protocol stream.  Never returns. *)
val worker_main :
  opts:worker_opts ->
  run:(ctx:job_ctx -> Jsonl.t -> Jsonl.t * int) ->
  unit ->
  unit
