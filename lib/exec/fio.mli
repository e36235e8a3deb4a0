(** Deterministic I/O fault injection.

    A thin shim over the file and pipe operations the exec and serve
    layers perform.  When {e off} (the default, and the only state
    production code ever sees) every wrapper is a direct passthrough —
    one word-sized read of a ref per call, nothing else.  When {e armed}
    every operation is numbered in program order, and a fault plan can
    make the k-th operation fail with a chosen fault class, which is
    what lets {!Faultfs} re-run a durability scenario once per injection
    point and check its recovery invariants.

    {2 The op-numbering contract}

    Ops are numbered 1, 2, 3, ... in the order the armed process issues
    them.  A scenario whose I/O is deterministic (every durability path
    in this repo is) issues the identical op sequence on every run, so
    [At {op = k; fault}] names one exact syscall-level event
    reproducibly: the count-only dry run reports N, and re-running the
    scenario N times with k = 1..N visits every I/O event once.

    While armed, write-class ops are {e write-through}: the buffered
    write and its flush happen together as one numbered op, so a
    simulated crash never has hidden buffered bytes — the bytes on disk
    after [Crashed] are exactly the bytes of the completed ops (plus
    the torn prefix of a short write).  Off-mode keeps Stdlib's normal
    buffering.

    {2 Fault classes}

    - [Eio]: the op fails with [EIO] before taking effect.
    - [Enospc]: a write lands a prefix, then fails with [ENOSPC];
      non-write ops fail cleanly.
    - [Short_write]: a write lands all but its final byte and the
      process dies ({!Crashed}) — the classic torn write, maximally
      adversarial because a torn journal line without its newline can
      still parse.  On non-write ops this degrades to crash-{e before}
      the op, so crash-before and crash-after are both explored.
    - [Eintr]: the op is interrupted once and must be retried; every
      wrapper carries the retry loop, so an injected [EINTR] must be
      invisible (the explorer asserts byte-identical results).
    - [Crash_after]: the op completes, then the process dies.

    A simulated death is the {!Crashed} exception.  Code on a
    durability path must let it propagate — a dead process runs no
    cleanup handlers that mutate the filesystem.  Use {!protect} (not
    [Fun.protect]) for filesystem cleanup like removing a temp file;
    in-memory cleanup (mutex unlock) should keep using [Fun.protect],
    since the simulated death only pertains to external effects. *)

type fault = Eio | Enospc | Short_write | Eintr | Crash_after

type plan =
  | At of { op : int; fault : fault }  (** fire once, at op number [op] *)
  | Every of { n : int; fault : fault }
      (** fire at every op number divisible by [n] — soak mode for a
          long-running daemon, where no single op count exists *)

(** Simulated process death: [op] is the op number that killed us. *)
exception Crashed of { op : int; fault : fault }

val all_faults : fault list
val fault_to_string : fault -> string
val fault_of_string : string -> (fault, string) result

(** ["eio@12"], ["crash@3"], ["enospc:every=7"], ... *)
val plan_to_string : plan -> string

val plan_of_string : string -> (plan, string) result

(** {2 Arming} *)

(** Arm with a plan.  [path_filter]: only ops whose file path contains
    the substring are numbered (and faultable); ops on pathless
    descriptors (pipes) and non-matching files pass through.  This is
    how a live daemon scopes injection to, say, its journal. *)
val arm : ?path_filter:string -> plan -> unit

(** Arm in count-only mode: number ops, inject nothing. *)
val arm_count : ?path_filter:string -> unit -> unit

(** Disarm; returns how many ops were numbered while armed. *)
val disarm : unit -> int

val armed : unit -> bool

(** Times the plan fired under the current arming. *)
val fired : unit -> int

(** Close (noerr) every channel opened through this module while armed
    and forget them — the explorer calls this after a simulated crash,
    standing in for the fd reaping the OS does when a real process
    dies.  Returns how many channels were closed. *)
val abandon_all : unit -> int

val is_crash : exn -> bool

(** [Fun.protect] for {e filesystem} cleanup: [finally] is skipped when
    [f] dies of a simulated crash, because a dead process removes no
    temp files. *)
val protect : finally:(unit -> unit) -> (unit -> 'a) -> 'a

(** {2 Wrapped operations}

    Same signatures and error behavior as their Stdlib/Unix
    counterparts, plus: numbered and faultable when armed, and
    transient [EINTR] (real or injected) is retried internally. *)

val open_out : string -> out_channel
val open_out_gen : open_flag list -> int -> string -> out_channel
val open_in : string -> in_channel
val output_string : out_channel -> string -> unit
val flush : out_channel -> unit

(** Flush then [fsync(2)], retrying [EINTR]. *)
val fsync_out : out_channel -> unit

val close_out : out_channel -> unit
val close_out_noerr : out_channel -> unit
val close_in : in_channel -> unit
val close_in_noerr : in_channel -> unit
val input_line : in_channel -> string
val really_input_string : in_channel -> int -> string
val rename : string -> string -> unit
val remove : string -> unit

(** [fsync(2)] the directory itself, so a preceding [rename] survives
    power loss.  Filesystems that cannot sync a directory fd
    ([EINVAL]/[EOPNOTSUPP]) are ignored — best effort is all POSIX
    offers there. *)
val fsync_dir : string -> unit

(** [Unix.read], numbered; pathless, so path filters exclude it. *)
val read : Unix.file_descr -> bytes -> int -> int -> int
