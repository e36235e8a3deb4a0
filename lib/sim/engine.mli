(** Cycle-accurate simulator of synchronous elastic circuits.

    Each cycle runs a combinational fixpoint over the valid/ready
    handshake signals (worklist propagation) followed by a sequential
    phase that transfers tokens and advances unit state.  The simulator
    reproduces the behaviours the paper depends on: single-enable
    pipeline stalling (head-of-line blocking is observable), credits
    returned one cycle late, lazy forks, priority/rotation/phased
    arbitration, and per-array memory ports with round-robin grant.
    Deadlock is detected as quiescence without completion.

    Chaos mode ([run ~chaos]) perturbs a run with the adversarial but
    protocol-legal behaviours of {!Chaos}.  Perturbed runs are not
    deterministic cycle-to-cycle, so when the circuit goes quiet the
    engine suspends all perturbations and only declares deadlock if it
    stays quiet under the deterministic baseline semantics — the same
    notion of deadlock as an unperturbed run. *)

type status =
  | Completed of int
      (** cycle of the last event; the run took one more cycle than
          this, which is what [stats.cycles] counts *)
  | Deadlock of int    (** cycle at which the circuit wedged *)
  | Out_of_fuel of int (** the fuel budget that elapsed without quiescence *)

(** {2 Observability events}

    The engine can narrate a run to an attached {!type:sink}: one typed,
    cycle-stamped event per observable fact of the token game.  With no
    sink attached every emission site reduces to a single [None] branch,
    so untraced runs are bit-identical to the pre-observability engine
    (pinned by the test suite) at negligible cost. *)

(** Why a channel presenting a token was refused this cycle, judged from
    the consumer's own microarchitectural state. *)
type stall_reason =
  | Backpressure      (** consumer refuses and no finer cause applies *)
  | Pipeline_full     (** single-enable pipeline with a blocked head token *)
  | Contention
      (** lost this cycle's arbitration: a load/store without its
          memory-port grant, or an unserved sharing-arbiter input *)
  | No_credit
      (** consumer is a join gated by a drained credit counter — the
          credit stall the CRUSH wrapper is designed to make rare *)
  | Operand_starved   (** multi-input consumer waiting on a sibling input *)

(** Stable lowercase slug, e.g. ["no-credit"] — used by trace writers,
    metric records and test assertions. *)
val string_of_stall_reason : stall_reason -> string

(** One observation from the transfer/settle loop.  [E_transfer] and
    [E_stall] describe channels at the combinational fixpoint (the same
    instant the sanitizers read); [E_fire] marks a unit whose sequential
    state advanced this cycle; [E_credit] is credit-counter traffic
    ([delta = -1] grant, [+1] return, [count] pre-transfer); [E_grant]
    records which input an arbiter served. *)
type event =
  | E_fire of { cycle : int; uid : int }
  | E_transfer of { cycle : int; cid : int; data : Dataflow.Types.value }
  | E_stall of { cycle : int; cid : int; reason : stall_reason }
  | E_credit of { cycle : int; uid : int; delta : int; count : int }
  | E_grant of { cycle : int; uid : int; port : int }

(** An event consumer, called synchronously from the simulation loop in
    deterministic order (channels by id within a cycle, then unit fires
    in active-set order).  Sinks must not mutate the engine. *)
type sink = event -> unit

(** Raised by {!run} when the caller-provided [deadline] reports the
    job's wall-clock budget exhausted; carries the cycle at which the
    simulation was interrupted.  The deadline is polled cooperatively
    every {!deadline_poll_period} cycles (cycle 0 included), so a
    deterministic predicate interrupts at a deterministic cycle. *)
exception Timeout of { cycles : int }

(** Poll period (in cycles) of the cooperative deadline check. *)
val deadline_poll_period : int

type stats = {
  status : status;
  cycles : int;          (** simulated cycles until quiescence *)
  transfers : int;       (** total tokens moved across channels *)
  exit_values : Dataflow.Types.value list;
      (** tokens received by Exit units, in arrival order *)
  perturbations : Chaos.counters;
      (** how often each chaos family actually bit during the run;
          {!Chaos.zero_counters} for unperturbed runs *)
}

(** Live simulator state (exposed for diagnostics). *)
type t

type outcome = { stats : stats; sim : t }

(** Phases at which a {!run} [monitor] is consulted, once per cycle
    each.  [After_settle]: the combinational fixpoint is reached, the
    handshake signals are final for the cycle, no sequential state has
    advanced yet — the monitor sees which channels are about to fire and
    the pre-transfer unit state.  [After_step]: the sequential phase is
    done — the monitor sees post-transfer state and can check the
    cycle's conservation deltas.  A monitor that raises aborts the run
    with its exception (how {!Sanitizer} reports violations). *)
type monitor_phase = After_settle | After_step

(** [run g] simulates until quiescence or [max_cycles].  Completion means
    every Exit unit received a token before the circuit went quiet.
    [memory] provides pre-initialized array contents (default: zeroed
    memories sized from the graph's declarations).  [chaos] switches on
    adversarial perturbation (see {!Chaos}); a valid elastic circuit
    must produce the same exit values and still complete under every
    chaos seed.  [deadline] is the per-job watchdog: a predicate polled
    every {!deadline_poll_period} cycles that returns [true] when the
    job's wall-clock budget is exhausted; it is additionally polled
    inside the combinational settle fixpoint (every 1024 unit
    evaluations), so even a pathologically long single-cycle settle is
    interrupted cooperatively.  [sink] attaches the observability event
    stream (see {!type:event}); a run without one is bit-identical to a
    run of the pre-observability engine.

    @raise Timeout if [deadline] fires.
    @raise Dataflow.Validate.Invalid if the graph fails validation. *)
val run :
  ?max_cycles:int ->
  ?deadline:(unit -> bool) ->
  ?monitor:(t -> cycle:int -> monitor_phase -> unit) ->
  ?chaos:Chaos.config ->
  ?memory:Memory.t ->
  ?sink:sink ->
  Dataflow.Graph.t ->
  outcome

(** {2 Compiled execution images}

    [image g] validates and compiles [g] once into a pristine, reusable
    execution image — the same struct-of-arrays form {!run} builds
    internally — and [run_image] simulates over it by cloning only the
    mutable run state (handshake bitmaps, buffer rings, pipeline slots,
    credits, arbiter turns) while sharing the compiled topology.  Repeat
    runs of the same circuit therefore skip validation and graph
    compilation entirely; a [run_image] is cycle-for-cycle identical to
    a {!run} of the same graph.  Images are immutable after creation and
    safe to share across domains.  Chaos is deliberately unsupported:
    chaos perturbation inflates pipeline depths at compile time, so a
    perturbed run can never share a cached image. *)

type image

(** Compile [g] into a reusable image.
    @raise Dataflow.Validate.Invalid if the graph fails validation. *)
val image : Dataflow.Graph.t -> image

(** The elaborated graph the image was compiled from. *)
val image_graph : image -> Dataflow.Graph.t

(** Approximate retained bytes, for byte-bounded caches: stable and
    monotone in graph size, not exact. *)
val image_bytes : image -> int

(** Exactly {!run} minus [chaos], over a pre-compiled image.  [memory]
    defaults to fresh zeroed memories sized from the graph.
    @raise Timeout if [deadline] fires. *)
val run_image :
  ?max_cycles:int ->
  ?deadline:(unit -> bool) ->
  ?monitor:(t -> cycle:int -> monitor_phase -> unit) ->
  ?memory:Memory.t ->
  ?sink:sink ->
  image ->
  outcome

(** Channels presenting a token their consumer refuses — the deadlock
    diagnostic. *)
val stalled_channels : t -> int list

(** Maximum occupancy a buffer reached during the run (initial tokens
    included); 0 for non-buffer units.  Profile data for the
    output-buffer shrinking pass (paper Section 6.4). *)
val buffer_high_water : t -> int -> int

(** {2 Post-mortem state accessors}

    Used by {!Forensics} to reconstruct why a deadlocked circuit cannot
    make progress.  All indices are graph unit/channel ids. *)

val graph_of : t -> Dataflow.Graph.t
val channel_valid : t -> int -> bool
val channel_ready : t -> int -> bool
val channel_data : t -> int -> Dataflow.Types.value

(** The engine's incrementally maintained count of firing channels —
    what the per-cycle transfer accounting uses.  {!Sanitizer} recounts
    fired channels independently and cross-checks this. *)
val fired_count : t -> int

(** Whether the run is chaos-perturbed.  Checks that assume the
    deterministic baseline semantics (e.g. strict priority-order
    compliance) must be skipped on perturbed runs. *)
val has_chaos : t -> bool

(** Remaining credits of a credit counter, [None] for other units. *)
val credit_count : t -> int -> int option

(** [(occupancy, slots)] of a buffer, [None] for other units. *)
val buffer_occupancy : t -> int -> (int * int) option

(** [(tokens in flight, depth)] of a pipelined unit, [None] otherwise. *)
val pipeline_busy : t -> int -> (int * int) option

(** Last cycle at which the unit's sequential state changed, [-1] if it
    never did.  The raw material of {!Forensics.analyze_livelock}. *)
val last_fire_cycle : t -> int -> int

(** [turn_holder t uid i]: for a rotation or phased arbiter, the input
    port holding the turn of cluster [i] (a rotation arbiter has the one
    cluster 0) — the only port of that cluster whose request it would
    grant; [-1] for an empty or absent cluster and for every other unit
    (priority arbiters never starve a lone requester). *)
val turn_holder : t -> int -> int -> int

val pp_status : status Fmt.t
val is_deadlock : outcome -> bool
val is_completed : outcome -> bool

(** {2 Incremental-monitor fast paths}

    Every run with a [monitor] attached maintains a dirty channel set:
    every channel whose valid/ready/data changed during the cycle's
    settle.  Since handshake signals only change during settle, the
    dirty set at [After_settle] of cycle [n] is exactly the channels
    that differ from their state at [After_settle] of cycle [n-1] —
    which lets a monitor (e.g. {!Sanitizer}) update per-channel ledgers
    incrementally instead of rescanning every channel every cycle. *)

(** Number of dirty channels this cycle (valid between [After_settle]
    and the next cycle's settle, on a monitored run).  The channels are
    the first [dirty_count] entries of [raw_dirty_list] (see {!raw}), in
    first-touch order within the cycle, without duplicates. *)
val dirty_count : t -> int

(** [value_eq a b] is [compare a b = 0] on payloads, without the
    polymorphic compare: floats compare by [Float.compare], so a NaN
    payload equals itself. *)
val value_eq : Dataflow.Types.value -> Dataflow.Types.value -> bool

(** {2 Raw monitor view}

    Direct references to the engine's live signal and state arrays, for
    monitors whose per-cycle budget is dominated by accessor-call
    overhead (without cross-module inlining each accessor read costs a
    call; the sanitizers make hundreds per cycle).  Indexes are channel
    ids ([raw_valid]/[raw_ready]: byte [<> '\000'] means asserted;
    [raw_data]) or unit ids ([raw_credit], [raw_buf_len], and
    [raw_pipe_has]: one byte per pipeline stage, [<> '\000'] when the
    stage holds a token, empty for units without a pipeline);
    [raw_dirty_list] holds {!dirty_count} valid entries on a monitored
    run.  The arrays are the simulation state itself, not
    copies: they stay current across cycles, and callers must never
    write to them. *)
type raw = {
  raw_valid : Bytes.t;
  raw_ready : Bytes.t;
  raw_data : Dataflow.Types.value array;
  raw_credit : int array;
  raw_buf_len : int array;
  raw_pipe_has : Bytes.t array;
  raw_dirty_list : int array;
}

val raw : t -> raw
