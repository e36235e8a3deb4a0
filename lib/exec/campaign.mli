(** Parallel simulation campaigns.

    Every evaluation artifact in this repository — the paper's tables and
    figures, the ablations, the chaos sweeps — is a large pile of
    mutually independent cycle-accurate simulations (kernel x strategy x
    seed).  This module fans such piles out across cores on a
    {!Pool} of OCaml 5 domains while keeping the results
    indistinguishable from a serial run.

    {2 Determinism contract}

    Results are collected in {e submission order}: [map ~jobs f xs] is
    observably [List.map f xs] whatever [jobs] is — same values, same
    order, and on error the same (first) exception — provided [f] is
    deterministic and self-contained.  Self-contained means each call
    builds its own mutable state (graph, memory image, simulator): calls
    must not share mutable structures with each other.  Everything in
    this repository satisfies that by construction (compilation and
    simulation have no global mutable state, and input generation is
    seeded per task), which is what the determinism test suite enforces
    end to end: tables, figures and chaos reports are bit-identical to
    serial runs.

    [~jobs:1] (the default) does not touch domains at all — it is plain
    [List.map], so serial behaviour is trivially unchanged. *)

(** A sensible parallel width for this machine:
    [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** [map ~jobs f xs] applies [f] to every element, running up to [jobs]
    calls concurrently, and returns the results in submission order.  If
    one or more calls raise, the exception of the earliest-submitted
    failing call is re-raised (after the whole batch has drained). *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [mapi] is {!map} with the submission index. *)
val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list

(** [sweep ~jobs f xs ys] evaluates the full cartesian product
    [f x y], x-major ([xs] outer, [ys] inner), in parallel; returns
    [(x, y, f x y)] triples in product order. *)
val sweep : ?jobs:int -> ('a -> 'b -> 'c) -> 'a list -> 'b list -> ('a * 'b * 'c) list

(** One independent simulation: a circuit plus its private memory image
    and optional chaos seed.  The graph and memory must not be shared
    with any other task. *)
type sim_task = {
  graph : Dataflow.Graph.t;
  memory : Sim.Memory.t option;  (** default: zeroed from the graph *)
  chaos : Sim.Chaos.config option;
  max_cycles : int option;
}

val sim_task :
  ?memory:Sim.Memory.t ->
  ?chaos:Sim.Chaos.config ->
  ?max_cycles:int ->
  Dataflow.Graph.t ->
  sim_task

(** Simulate every task ({!Sim.Engine.run}) across [jobs] cores; stats
    come back in submission order, bit-identical to a serial run. *)
val run_sims : ?jobs:int -> sim_task list -> Sim.Engine.stats list

(** {2 Supervised campaigns}

    {!map} re-raises the first exception, which is right for tests but
    wrong for a long sweep: one poisoned job destroys the batch.  The
    supervised API classifies every failure into the {!Outcome}
    taxonomy and returns [(task, outcome)] pairs in submission order —
    the batch always drains.  Supervision adds three facilities:

    - {b watchdog}: [timeout_s] bounds each attempt's wall clock; the
      deadline is polled cooperatively inside {!Sim.Engine.run} and an
      overdue job becomes [Job_timeout] while its siblings continue.  A
      timeout of [0.0] fires at the first poll, before any wall-clock
      time elapses, so it interrupts at a deterministic cycle (used by
      the determinism tests);
    - {b retry with quarantine}: transient failures ([Job_timeout],
      [Worker_crash]) are retried up to [retries] extra times; jobs
      still failing land in the [<journal>.quarantine] manifest with
      their attempt count and class;
    - {b checkpoint/resume}: with [journal], every finished task is
      appended to a JSONL file the moment it completes; a rerun with the
      same journal skips every recorded key (retry is within-run only).

    The determinism contract extends to supervised runs: for
    deterministic tasks and a deterministic deadline, the outcome list
    is bit-identical whatever [jobs] is. *)

type supervision = {
  timeout_s : float option;  (** per-attempt wall-clock budget *)
  retries : int;             (** extra attempts for transient failures *)
  journal : string option;   (** JSONL checkpoint path *)
  fsync : bool;              (** fsync every journal record *)
}

val supervision :
  ?timeout_s:float ->
  ?retries:int ->
  ?journal:string ->
  ?fsync:bool ->
  unit ->
  supervision

(** The attempt-and-retry loop shared by {!map_outcomes} and the
    out-of-process shard workers (see {!Supervisor.worker_main}): run
    [f] under a fresh [timeout_s] deadline per attempt, classify an
    escaping exception via {!Outcome.of_exn}, and retry transient
    outcomes up to [retries] extra times.  Returns the final outcome and
    the attempts consumed (1 = no retry).  Serial and sharded campaigns
    sharing this loop is what keeps their journalled [attempts] — and so
    the journal bytes — identical. *)
val run_with_retries :
  ?timeout_s:float ->
  ?retries:int ->
  (deadline:(unit -> bool) -> 'a Outcome.t) ->
  'a Outcome.t * int

(** [map_outcomes ~sup ~key f xs] runs [f ~deadline x] for every task,
    classifying raised exceptions via {!Outcome.of_exn}; [f] should pass
    [deadline] to {!Sim.Engine.run} (or poll it itself in long
    non-simulation work).  [key] must be stable across runs and unique
    within the campaign — it is the journal's resume identity.
    [encode]/[decode] serialize the [Ok] payload for the journal; a
    journalled record whose payload no longer decodes is re-run.

    Graceful interruption: when {!Interrupt.triggered} becomes true
    (the CLI installs the handlers via {!Interrupt.install}), tasks
    already in flight finish and are journalled normally, tasks not yet
    started are skipped — neither run nor journalled — and the result
    list contains only the resolved tasks, still in submission order.
    A rerun with the same journal resumes exactly where the interrupt
    landed.  Without an interrupt the result covers every task. *)
val map_outcomes :
  ?jobs:int ->
  ?sup:supervision ->
  key:('a -> string) ->
  ?encode:('b -> Jsonl.t) ->
  ?decode:(Jsonl.t -> 'b option) ->
  (deadline:(unit -> bool) -> 'a -> 'b Outcome.t) ->
  'a list ->
  ('a * 'b Outcome.t) list

(** How many of [xs] a fresh {!map_outcomes} run would actually execute
    (not yet recorded in the supervision's journal). *)
val pending_count : ?sup:supervision -> key:('a -> string) -> 'a list -> int

(** Like {!pending_count}, but also returns the journal's superseded
    duplicate-key record count ({!Journal.load_with_duplicates}) so
    campaign summaries can surface replay/merge anomalies instead of
    losing them in a load-time stderr line. *)
val pending_and_dups :
  ?sup:supervision -> key:('a -> string) -> 'a list -> int * int

(** Supervised {!run_sims}: every simulation becomes an
    {!Outcome.of_sim_run} classification, with stats journalled via the
    standard codecs.  [key] defaults to the submission index rendered as
    ["task-%04d"] — stable as long as the task list is. *)
val run_sims_supervised :
  ?jobs:int ->
  ?sup:supervision ->
  ?key:(int -> sim_task -> string) ->
  sim_task list ->
  (sim_task * Sim.Engine.stats Outcome.t) list
