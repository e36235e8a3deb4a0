(** Automatic failing-case minimization: deterministic, budget-bounded
    ddmin over dataflow circuits.

    Given a circuit that trips a {!Sim.Sanitizer} invariant, the reducer
    shrinks it — coarse ddmin over sharing-wrapper bundles (which also
    splits sharing groups), fine ddmin over single units, buffer-init
    shortening, buffer-slot shrinking, memory halving — re-validating
    and re-simulating every candidate and keeping it only if the {e
    same} invariant still fires.  Unit removal cauterizes severed
    channels via {!Crush.Elide.excise}; the ["cut_"]-labelled artifacts
    it leaves are excluded from {!result.kept_units}.

    The whole reduction is deterministic, so equal inputs yield
    byte-equal [.repro.json] files at any campaign parallelism. *)

type result = {
  graph : Dataflow.Graph.t;  (** the minimized circuit *)
  kept_units : int;  (** live units excluding ["cut_"] scaffolding *)
  evals : int;       (** predicate evaluations spent (≤ budget) *)
  violation : Sim.Sanitizer.violation;
      (** the violation the minimized circuit raises *)
  timed_out : bool;
      (** the [?deadline] watchdog fired mid-reduction; the result is
          the best (smallest) reduction proven before it fired *)
}

(** Live units of a circuit excluding ["cut_"] scaffolding. *)
val kept_units : Dataflow.Graph.t -> int

(** Simulate under the sanitizer monitor on a zero-filled memory;
    [Some v] iff a violation was raised.  Completion, deadlock, fuel
    exhaustion and unrelated exceptions all map to [None]. *)
val simulate :
  ?deadline:(unit -> bool) ->
  max_cycles:int ->
  Dataflow.Graph.t ->
  Sim.Sanitizer.violation option

(** [minimize g] shrinks [g] while it keeps tripping the target
    invariant ([?invariant]; default: whatever the unreduced circuit
    trips).  [budget] (default 250) bounds predicate evaluations —
    validate + simulate per candidate; [max_cycles] (default 20_000)
    bounds each simulation.  [deadline] is the supervised-campaign
    watchdog: when it fires, the walk stops like a spent budget and the
    best reduction proven so far is returned with [timed_out] set, so
    reducing a hang repro can never itself hang the reducer.  [None]
    when [g] does not trip the target invariant in the first place (or
    the deadline fired before a baseline was established).  [g] itself
    is never mutated. *)
val minimize :
  ?budget:int ->
  ?max_cycles:int ->
  ?deadline:(unit -> bool) ->
  ?invariant:string ->
  Dataflow.Graph.t ->
  result option

(** {2 Self-contained repro files}

    A [.repro.json] is one JSON object: schema version, provenance
    metadata, and the full circuit (units with dense ids, channels,
    memories) — loadable with {!load_repro} and re-runnable with
    {!simulate} without any of the code that produced it. *)

type meta = {
  fault : string;       (** what produced the failing circuit *)
  invariant : string;   (** sanitizer invariant the repro trips *)
  cycle : int;          (** violation cycle when replayed *)
  unit_label : string;  (** convicted unit *)
}

val meta_of_result : fault:string -> result -> meta

(** Circuit codec; [graph_of_json] returns [None] on any shape
    mismatch or on a unit with more ports than the payload has channels
    (a valid circuit connects every port), and never raises. *)
val graph_to_json : Dataflow.Graph.t -> Jsonl.t
val graph_of_json : Jsonl.t -> Dataflow.Graph.t option

val write_repro : string -> meta -> Dataflow.Graph.t -> unit

(** [None] on a missing file or any decode failure; never raises. *)
val load_repro : string -> (meta * Dataflow.Graph.t) option

(** Minimize, then write [<name>.repro.json] and [<name>.dot] into
    [dir] (created if missing).  Returns the repro path and the
    reduction result; [None] when the circuit does not trip a
    sanitizer invariant. *)
val reduce_to_files :
  ?budget:int ->
  ?max_cycles:int ->
  ?deadline:(unit -> bool) ->
  ?invariant:string ->
  dir:string ->
  name:string ->
  fault:string ->
  Dataflow.Graph.t ->
  (string * result) option
