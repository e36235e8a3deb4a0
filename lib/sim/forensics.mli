(** Deadlock forensics: why can a quiesced circuit not make progress?

    On deadlock the simulator's final signal state is a witness: every
    unit is blocked either because a consumer refuses its token
    (valid and not ready on an output channel) or because an input it
    needs is starved (kind-aware: a join with some but not all operands,
    a rotation arbiter whose turn-holder never requests, a credit
    counter out of credits, ...).  These blocking relations form a
    wait-for graph over units; a deadlock is sustained exactly by its
    cyclic part, so Tarjan SCC ({!Analysis.Scc}) isolates the cyclic
    core(s).  The report names each core, the channels along it, and the
    live state of its units — credit-counter values, buffer occupancies,
    pipeline fill — which is what one needs to see an Eq. 1 violation
    (more circulating credits than output-buffer slots) at a glance. *)

(** Why [src] waits on [dst] in the wait-for graph. *)
type reason =
  | Blocked_output  (** src offers a token on [channel]; dst refuses it *)
  | Awaiting_token  (** src needs a token on [channel]; dst never sends *)

type edge = {
  src : int;
  dst : int;
  channel : int;  (** the channel the wait travels over *)
  reason : reason;
}

(** Live state of one unit in a cyclic core, pre-rendered for reports. *)
type note = {
  unit_id : int;
  label : string;
  state : string option;
      (** e.g. ["credits 0"], ["buffer 2/2 (full)"], ["pipeline 3/4"] *)
}

(** One cyclic core of the wait-for graph: a set of mutually waiting
    units that can never unblock each other. *)
type core = {
  members : int list;         (** unit ids, ascending *)
  core_edges : edge list;     (** wait-for edges internal to the core *)
  notes : note list;          (** one per member, same order *)
}

type report = {
  cycle : int;            (** cycle at which the circuit wedged *)
  edges : edge list;      (** the full wait-for graph *)
  cores : core list;      (** cyclic cores; at least one per true deadlock *)
}

(** [Some report] when the outcome is a deadlock, [None] otherwise. *)
val analyze : Engine.outcome -> report option

(** Mid-flight probe over a still-running simulation.  Builds a
    conservative wait-for graph — merge OR-waits and busy pipelines are
    never demanded, since those waits can resolve on their own — so any
    cyclic core reported is already a sustained deadlock even while the
    rest of the circuit is still making progress.  An empty [cores] list
    means nothing is provably wedged (yet).  Used by {!Sanitizer} to
    convict a wedged sharing wrapper long before global quiescence. *)
val probe : Engine.t -> cycle:int -> report

(** Per-simulation tables and workspace for {!probe_core_exists}: each
    unit's kind and port rows, channel endpoints, the exits, and the
    int-array frontier, adjacency and DFS stack, sized to one
    simulation's graph.  Bound to the simulation it was built from and
    reusable across any number of probes of it.  A probe with it
    allocates nothing: its cost is proportional to the blocked region,
    not the whole graph. *)
type probe_scratch

val probe_scratch : Engine.t -> probe_scratch

(** Cheap cycle-existence form of {!probe} on the scratch's simulation:
    same conservative wait-for edge set, but answers only whether a
    cyclic core exists — [probe_core_exists ps ~stalled ~n_stalled] iff
    [(probe sim ~cycle).cores <> []] — with one DFS over the adjacency
    arrays instead of the full SCC partition and report.  The first
    [n_stalled] entries of [stalled] must be exactly the channel ids
    with [valid && not ready] this cycle (in any order): the seed set,
    which spares the probe a whole-graph scan.  {!Sanitizer} calls this
    on every wait-cycle trigger, with its incrementally maintained
    stalled set, and only pays for the full {!probe} on conviction. *)
val probe_core_exists :
  probe_scratch -> stalled:int array -> n_stalled:int -> bool

(** {2 Livelock snapshot}

    An [Out_of_fuel] run never quiesced, so the wait-for analysis above
    does not apply.  The diagnosable fact is who was still moving when
    the fuel ran out: a small set of units recirculating tokens with no
    exit progress is a livelock; everything firing is an honestly
    too-small fuel budget. *)

(** One unit that fired near the end of an out-of-fuel run. *)
type firing = {
  f_unit : int;
  f_label : string;
  f_last : int;           (** last cycle its sequential state changed *)
  f_state : string option;  (** live state, as in {!note} *)
}

type livelock = {
  fuel : int;             (** the exhausted cycle budget *)
  window : int;           (** "recent" means within this many last cycles *)
  final_cycle : int;      (** last cycle actually simulated *)
  recent : firing list;   (** units active in the window, most recent first *)
  exit_tokens : int;      (** tokens the Exit units did receive *)
  total_transfers : int;
}

(** [Some snapshot] when the outcome is [Out_of_fuel], [None] otherwise.
    The window is the run's last 64 cycles. *)
val analyze_livelock : Engine.outcome -> livelock option

val pp_livelock : livelock Fmt.t

(** Human-readable report: one block per core listing its units with
    their live state and the wait edges connecting them. *)
val pp : report Fmt.t

(** DOT rendering of the circuit with the cyclic cores painted red and
    core units annotated with their live state ({!Dataflow.Dot}). *)
val to_dot : Dataflow.Graph.t -> report -> string

(** Convenience: does any cyclic core contain a unit satisfying [f]?
    Used by tests and the CLI to check e.g. that a sharing wrapper is
    part of the deadlock. *)
val core_contains : report -> (int -> bool) -> bool
