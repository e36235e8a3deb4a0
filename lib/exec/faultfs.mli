(** Exhaustive fault-schedule exploration of the durability paths.

    A {!scenario} is a deterministic I/O workload plus its recovery
    procedure and invariants.  {!explore} first runs it fault-free with
    {!Fio} in count-only mode to learn its op count N, then re-runs it
    N x |faults| times — once per (injection point, fault class) — and
    after every run checks:

    - the scenario's own invariants, both immediately after the fault
      ([Post_fault]: e.g. atomic targets are old-bytes-or-new-bytes,
      journals are prefix-closed with no acked record lost) and after
      recovery ([Recovered]: e.g. merged journals byte-identical to the
      fault-free run);
    - recovery itself completes without raising;
    - no [.tmp.] residue survives recovery;
    - [/proc/self/fd] is back at its baseline (nothing leaked).

    Everything is deterministic: a failing plan is fully named by
    (scenario, op, fault) and replayed with {!explore} [~only_op]. *)

type stage = Post_fault | Recovered

type scenario = {
  name : string;
  prepare : dir:string -> unit;  (** fresh [dir]; runs unarmed *)
  run : dir:string -> unit;
      (** the workload under injection; an injected error or simulated
          crash unwinds out of here *)
  recover : dir:string -> unit;  (** what a restarted process does;
                                     runs unarmed and must not raise *)
  check : dir:string -> stage:stage -> golden:(string * string) list -> string list;
      (** invariant violations ([golden] is the recovered fault-free
          state as relative-path/bytes pairs) *)
}

type outcome = Completed | Died | Errored of string

type verdict = {
  op : int;
  fault : Fio.fault;
  outcome : outcome;
  violations : string list;
}

type report = { scenario : string; total_ops : int; verdicts : verdict list }

(** Run the full exploration under [root]/[scenario.name] (recreated).
    [faults] defaults to every class; [only_op] replays one injection
    point.  Raises [Failure] if the scenario violates its own
    invariants fault-free — a broken scenario, not a finding. *)
val explore :
  ?faults:Fio.fault list -> ?only_op:int -> root:string -> scenario -> report

val violations : report -> verdict list
val outcome_to_string : outcome -> string

(** One JSONL row per verdict, for the CI artifact table. *)
val verdict_to_json : scenario_name:string -> verdict -> Jsonl.t

(** {2 Built-in scenarios} *)

(** Serial supervised campaign over [n_tasks] journalled tasks;
    recovery resumes from the journal and writes the canonical merged
    journal, which must be byte-identical to the fault-free run's. *)
val campaign_scenario : ?n_tasks:int -> unit -> scenario

(** Every built-in scenario, in a fixed order:
    - [journal]: an fsync'd journal appends 4 records, then resumes
      after the fault and re-appends whatever was lost.  Loads never
      raise, the acked set is never lost, the key set stays
      prefix-closed.
    - [atomic]: {!Journal.write_atomic} over an existing target; the
      file always holds exactly the old bytes or the new bytes.
    - [merge]: a 3-shard journal merge; the merged file is absent or
      byte-identical to the serial merge, never torn.
    - [campaign]: {!campaign_scenario} with its default task count. *)
val builtin : unit -> scenario list

val find : string -> scenario option
