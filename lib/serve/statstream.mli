(** Bounded ring of per-second server aggregates feeding the
    [/v1/stats/stream] chunked endpoint.

    The server's sampler thread {!push}es one JSON aggregate per period;
    any number of stream handlers tail the ring with {!read_from},
    each keeping only an integer cursor.  The ring holds the last
    [capacity] samples — a slow or late-joining reader receives the
    retained backlog, never unbounded history, and a reader that lags
    past the ring simply skips to the oldest retained sample.

    Thread-safe; readers poll (samples arrive at ~1 Hz, so a condvar
    would buy nothing over a 50 ms poll). *)

type t

(** @raise Invalid_argument when [capacity < 1]. *)
val create : capacity:int -> t

(** Append one sample (dropped silently after {!close}). *)
val push : t -> Exec.Jsonl.t -> unit

(** Mark the stream finished (server drain); readers see [closed] and
    terminate their chunked responses. *)
val close : t -> unit

(** [read_from t ~seq] returns [(next, samples, closed)]: every retained
    sample with sequence >= [seq], the cursor to pass next time, and
    whether the stream is closed.  Never blocks. *)
val read_from : t -> seq:int -> int * Exec.Jsonl.t list * bool
