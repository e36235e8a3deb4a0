(** Persistent crash-isolated worker pool for the serve daemon.

    The batch {!Exec.Supervisor} deals a fixed task list to short-lived
    shards; a daemon instead needs N {e long-lived} worker processes
    that requests borrow one at a time.  Both pools hold their processes
    through the same handle, {!Exec.Worker} — workers are the same
    binary in [__worker] mode, frames travel the same {!Exec.Wire}
    protocol, death maps to the same taxonomy — but this pool inverts
    the control flow: the connection thread that owns a request acquires
    a slot, runs exactly one job on it synchronously (watching heartbeats
    and the request deadline), and releases it.  A worker SIGKILLed or
    crashed mid-job therefore costs exactly that request
    ([Worker_lost] / 503).

    Loss is prompt: on pipe EOF, a broken write or a corrupt frame the
    slot's process is stopped with {!Exec.Worker.stop}, which SIGKILLs
    before it reaps — a wedged-but-alive worker with a closed stdout
    cannot keep the slot borrowed — the replacement worker is respawned
    eagerly on the loss path, and the slot is released immediately, so
    the next job is admitted without waiting on any grace timer.

    Thread-safe; one job per slot at a time by construction. *)

type t

(** Spawn-on-demand pool of [n] slots.  [binary] is launched with
    [argv_tail] (conventionally [["__worker"; "--kind"; "serve"; ...]]).
    [heartbeat_s <= 0.] disables the silence watchdog; [grace_s] is the
    slack past a request deadline before the hard SIGKILL. *)
val create :
  binary:string ->
  argv_tail:string list ->
  heartbeat_s:float ->
  grace_s:float ->
  n:int ->
  t

(** Borrow a slot, blocking until one frees or [deadline] passes.
    [None] on deadline or pool shutdown. *)
val acquire : t -> deadline:float -> int option

val release : t -> int -> unit

(** Run one job on an acquired slot.  Returns the worker's outcome with
    its payload kept in journal JSON form, plus attempts.  Worker death
    becomes [Worker_lost]; a heartbeat-silent or deadline-overrunning
    worker is SIGKILLed and becomes [Worker_killed].  Never raises. *)
val run_job :
  t ->
  int ->
  key:string ->
  spec:Exec.Jsonl.t ->
  deadline:float ->
  Exec.Jsonl.t Exec.Outcome.t * int

(** Live worker pids (diagnostics; tests SIGKILL one to inject a loss). *)
val pids : t -> int list

(** (spawns, respawns, lost, killed, jobs run). *)
val stats : t -> int * int * int * int * int

(** Drain ({!Exec.Worker.drain}): send [Shutdown] to every live worker,
    wait up to [timeout_s], SIGKILL stragglers, reap everything.
    Returns the number of workers still running at the timeout (0 on a
    clean drain). *)
val shutdown : t -> timeout_s:float -> int
