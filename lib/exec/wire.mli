(** Length-prefixed JSONL framing for supervisor <-> worker pipes.

    Frame grammar (both directions):

    {v <decimal payload byte length>\n<payload JSON>\n v}

    The explicit length prefix makes torn writes detectable — a worker
    SIGKILLed mid-frame leaves a short read, never a silently truncated
    JSON object parsed as something else — while the trailing newline
    keeps a captured stream greppable.  Payloads are {!Jsonl} values, the
    same hand-rolled codec the journals use, so worker outcomes travel
    the pipe in exactly their on-disk form. *)

type msg =
  | Hello of { pid : int; shard : int }
      (** worker -> supervisor, once at startup *)
  | Job of { key : string; spec : Jsonl.t }
      (** supervisor -> worker: run the task encoded by [spec] *)
  | Heartbeat of { key : string }
      (** worker -> supervisor: still alive inside [key]'s job;
          rate-limited by the sender *)
  | Result of { key : string; attempts : int; outcome : Jsonl.t }
      (** worker -> supervisor: [key] finished; [outcome] is the
          journal-form encoded {!Outcome} *)
  | Shutdown  (** supervisor -> worker: drain and exit 0 *)

val to_json : msg -> Jsonl.t
val of_json : Jsonl.t -> msg option

(** Raised by {!next} on an undecodable frame; the supervisor treats the
    connection (and the worker behind it) as lost. *)
exception Corrupt of string

(** {2 Blocking channel I/O} — the worker side of the pipe. *)

(** Write one frame and flush. *)
val write : out_channel -> msg -> unit

(** Read one frame, blocking.  [None] on EOF or a torn/undecodable
    frame — a worker treats either as "supervisor gone, exit now". *)
val read : in_channel -> msg option

(** {2 Incremental decoder} — the supervisor side, fed from
    [Unix.read] chunks as [select] reports readable pipes. *)

type decoder

val create_decoder : unit -> decoder

(** Append [len] bytes from the start of [bytes] to the decoder. *)
val feed : decoder -> bytes -> len:int -> unit

(** Pop the next complete frame; [None] means more bytes are needed.
    Raises {!Corrupt} on an undecodable frame. *)
val next : decoder -> msg option
