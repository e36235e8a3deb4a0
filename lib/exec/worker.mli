(** The parent's handle on one worker process: the one place that
    spawns, signals and reaps the [__worker] processes of both pools —
    the shard {!Supervisor} and the serve daemon's [Serve.Workers].

    A worker is the current binary (or any binary that runs
    {!Supervisor.worker_main}) with a job pipe on its stdin and a
    {!Wire} frame pipe on its stdout.  The parent-side pipe ends are
    close-on-exec, so a sibling spawned later never inherits them: a
    worker's EOF arrives the moment that worker is gone, not when the
    last sibling exits.

    Stopping is prompt by construction: {!stop} SIGKILLs {e before} it
    reaps, so a worker that closed its protocol pipe but kept running
    cannot hold the parent in [waitpid]. *)

type t

(** Launch [binary] with argv [binary :: args].
    @raise Unix.Unix_error if the pipes or the process cannot be
    created. *)
val spawn : binary:string -> string list -> t

val pid : t -> int

(** Write one frame to the worker's stdin.  [false] if the pipe is
    broken (the worker is gone or has closed its stdin). *)
val send : t -> Wire.msg -> bool

type event =
  | Msg of Wire.msg
  | Idle            (** no complete frame within the timeout *)
  | Closed          (** EOF or a read error: the worker's stdout is gone *)
  | Corrupt of string  (** an undecodable frame; {!stop} the worker *)

(** The next frame from the worker, waiting at most [timeout] seconds
    for bytes when none is buffered.  Frames that arrived before EOF are
    returned before [Closed]. *)
val recv : t -> timeout:float -> event

(** The workers with bytes to read, waiting at most [timeout] seconds
    ([[]] on timeout or a signal). *)
val readable : t list -> timeout:float -> t list

(** Send SIGKILL and return; the worker's EOF follows.  No-op once the
    worker has been reaped. *)
val kill : t -> unit

(** SIGKILL, close both pipes, reap, and say how the worker ended
    (["exit 3"], ["signal 9"]).  Idempotent: a second call returns the
    first answer. *)
val stop : t -> string

(** Send [Shutdown] to every worker, wait up to [timeout_s] in total
    for them to exit, then {!stop} them all.  Returns how many were
    still running at the timeout (0 on a clean drain). *)
val drain : t list -> timeout_s:float -> int
