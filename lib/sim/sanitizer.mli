(** Elastic-protocol sanitizers: always-on-able runtime monitors that
    convict a buggy circuit (or a buggy engine) the moment an invariant
    breaks, instead of waiting for the wreckage to quiesce into a
    deadlock report.

    The monitors hang off the engine's {!Engine.run} [monitor] hook and
    check, every cycle:

    - {b token-conservation}: the engine's incremental transfer counter
      matches an independent recount of firing channels, and pipeline
      fill obeys the exact in/out ledger;
    - {b valid-persistence}: a registered producer (entry, opaque
      buffer, pipelined operator, load, store, credit counter) that
      offered a token nobody consumed keeps offering the same token —
      no retraction, no replacement;
    - {b join-partial-fire}: a join consumes all operands and emits its
      output in the same cycle, or does nothing;
    - {b arbiter-one-hot} / {b arbiter-output-sync} /
      {b arbiter-priority-order}: one grant per cycle, both wrapper
      outputs accompany it, and (on unperturbed runs) a priority
      arbiter serves the earliest valid request;
    - {b buffer-overflow} / {b buffer-underflow}: FIFO occupancy stays
      within capacity and obeys the per-cycle ledger;
    - {b credit-conservation} / {b credit-same-cycle-return}: credit
      balances stay in [0, init], obey the ledger, and a returned
      credit only becomes spendable the following cycle;
    - {b eq1-credit-capacity}: per sharing-wrapper pair (matched by the
      [cc_]/[ob_] label convention), credits in flight never outnumber
      output-buffer slots — the dynamic face of the paper's Eq. 1,
      crossed by the credit-sizing faults long before they wedge;
    - {b deadlock-wait-cycle}: channels frozen at valid-and-not-ready
      past a threshold (or a wholly transfer-free cycle) trigger a
      conservative {!Forensics.probe}; any cyclic core it reports is a
      sustained deadlock, convicted while the rest of the circuit may
      still be moving — strictly earlier than quiescence detection.

    All checks are sound under chaos perturbation (the priority-order
    check, which assumes the deterministic tie-break, disables itself
    on perturbed runs), so the clean-circuit sweep of
    [crush sanitize] expects {e zero} violations across every kernel,
    strategy and chaos seed. *)

type violation = {
  cycle : int;        (** cycle at which the invariant broke *)
  unit_label : string;  (** offending unit (or ["<engine>"]) *)
  invariant : string;   (** stable invariant name, e.g. ["eq1-credit-capacity"] *)
  detail : string;      (** human-readable state snapshot *)
}

exception Violation of violation

val pp_violation : violation Fmt.t

(** A fresh monitor closure for {!Engine.run}'s [?monitor] argument.
    State initializes lazily on the first call (capturing the engine),
    so one closure serves exactly one run.  Raises {!Violation} from
    inside the run loop on the first broken invariant. *)
val monitor :
  unit ->
  Engine.t -> cycle:int -> Engine.monitor_phase -> unit
