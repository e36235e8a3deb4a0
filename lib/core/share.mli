(** CRUSH: the complete credit-based sharing pass (the paper's
    contribution, Sections 4 and 5).

    [crush] analyzes the performance-critical CFCs once, infers sharing
    groups (Algorithm 1), orders each group by access priority
    (Algorithm 2), allocates credits (Equation 3), and rewrites the
    circuit in place with credit-based sharing wrappers (Figure 3). *)

(** One sharing group after rewriting. *)
type shared_group = {
  op : Dataflow.Types.opcode;
  members : int list;  (** original unit ids, highest priority first *)
  credits : int list;  (** N_CC per member (Equation 3) *)
  shared_unit : int;   (** id of the shared unit in the rewritten circuit *)
}

type report = {
  groups : shared_group list;
  singles : int;       (** candidate operations left unshared *)
  opt_time_s : float;
      (** wall-clock optimization time, on the monotonic clock (process
          CPU time would also count other domains' work) *)
}

(** [crush graph ~critical_loops] applies CRUSH to [graph] in place.
    [critical_loops] names the performance-critical CFCs (the innermost
    loop of each nest, as reported by the frontend).

    - [shareable] restricts the candidate opcodes (default: the
      floating-point units, {!Context.default_shareable}).
    - [enforce_r3], [reverse_priority] and [credit_fn] exist for the
      ablation studies only: respectively disable rule R3, invert every
      group's access priority (paper Figure 4 shows why this hurts), and
      override the credit allocation of Equation 3.

    The rewritten circuit is re-validated before returning. *)
val crush :
  ?shareable:Dataflow.Types.opcode list ->
  ?enforce_r3:bool ->
  ?reverse_priority:bool ->
  ?credit_fn:(Context.t -> int -> int) ->
  Dataflow.Graph.t ->
  critical_loops:int list ->
  report

val pp_report : report Fmt.t
