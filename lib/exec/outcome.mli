(** Structured failure taxonomy for supervised campaigns.

    One variant type spans the whole pipeline — frontend, circuit
    validation, simulation, the worker domain itself — so a sweep can
    report {e which stage} refused each task instead of aborting
    wholesale, and an infrastructure failure is never conflated with a
    genuine circuit deadlock.  Each constructor carries enough forensic
    payload to diagnose the failure without re-running. *)

type 'a t =
  | Ok of 'a
  | Frontend_error of {
      phase : string;              (** "lex" | "parse" | "sema" | "codegen" *)
      loc : (int * int) option;    (** 1-based line, column *)
      token : string option;
      message : string;
    }
  | Validation_error of { message : string }
  | Sim_deadlock of {
      cycle : int;
      core : string list;
          (** labels of the units in the forensics cyclic core(s) *)
    }
  | Out_of_fuel of {
      fuel : int;
      still_firing : string list;
          (** labels of units active in the final window (livelock set) *)
      exit_tokens : int;
    }
  | Job_timeout of { cycles : int }  (** simulated cycles when interrupted *)
  | Worker_crash of { exn : string; backtrace : string }
  | Sanitizer_violation of {
      cycle : int;
      unit_label : string;
      invariant : string;
          (** stable invariant name, e.g. ["eq1-credit-capacity"] *)
      detail : string;
      repro : string option;
          (** path of a minimized reproducer, once {!Reduce} made one *)
    }
  | Worker_lost of {
      shard : int;   (** which shard's process died *)
      reason : string;
          (** how the process died, e.g. ["signal 9"] or ["exit 2"] *)
    }
      (** A whole worker {e process} died out from under its job —
          SIGKILLed by the OOM killer, segfaulted, exited nonzero — as
          opposed to {!Worker_crash}, where an exception was caught
          in-process and the worker survived. *)
  | Worker_killed of {
      shard : int;
      after_s : float;  (** wall-clock seconds before the supervisor shot it *)
    }
      (** The supervisor SIGKILLed a wedged worker preemptively: its job
          blew the hard wall-clock deadline or stopped heartbeating (a
          hang that never polls the cooperative watchdog). *)

val is_ok : 'a t -> bool

(** Apply [f] to an [Ok] payload; a failure keeps its class and forensic
    payload at the new payload type. *)
val map : ('a -> 'b) -> 'a t -> 'b t

(** Worth retrying: [Job_timeout], [Worker_crash], [Worker_lost] and
    [Worker_killed].  The other classes are deterministic and would fail
    identically again. *)
val is_transient : 'a t -> bool

(** Stable lowercase class label ("ok", "frontend", "validation",
    "deadlock", "out-of-fuel", "timeout", "crash", "sanitizer",
    "worker-lost", "worker-killed") — used in journals, reports and test
    assertions. *)
val class_name : 'a t -> string

(** Per-class process exit code: 0 for ok, 10..17 for the failure
    classes in taxonomy order (clear of cmdliner's and the shell's
    reserved codes).  [Worker_lost] and [Worker_killed] share 17. *)
val exit_code : 'a t -> int

(** Classify an exception escaping a job.  Never raises. *)
val of_exn : exn -> 'a t

(** Classify a finished simulation; deadlocks carry their forensics
    cyclic core, out-of-fuel runs their livelock still-firing set. *)
val of_sim_run : Sim.Engine.outcome -> Sim.Engine.stats t

(** {2 Summaries} *)

type summary = {
  total : int;
  n_ok : int;
  n_frontend : int;
  n_validation : int;
  n_deadlock : int;
  n_out_of_fuel : int;
  n_timeout : int;
  n_crash : int;
  n_sanitizer : int;
  n_worker_lost : int;
  n_worker_killed : int;
}

val summarize : 'a t list -> summary

(** Exit code of a whole run: that of the most severe class present. *)
val summary_exit_code : summary -> int

val pp_summary : summary Fmt.t
val pp : 'a Fmt.t -> 'a t Fmt.t

(** {2 JSON codec} — the journal's on-disk form.  [of_json decode]
    returns [None] on any shape mismatch (a corrupt or foreign record);
    it never raises. *)

val to_json : ('a -> Jsonl.t) -> 'a t -> Jsonl.t
val of_json : (Jsonl.t -> 'a option) -> Jsonl.t -> 'a t option

(** {2 Payload codecs} for the standard campaign result types. *)

val value_to_json : Dataflow.Types.value -> Jsonl.t
val value_of_json : Jsonl.t -> Dataflow.Types.value option
val stats_to_json : Sim.Engine.stats -> Jsonl.t
val stats_of_json : Jsonl.t -> Sim.Engine.stats option
