(** The In-order baseline: total-token-order sharing [Josipović et al.,
    FCCM 2022] (paper Section 3).  Accesses follow the program's
    basic-block order — strict per-iteration rotation within a loop,
    program order across nests — and every candidate merge is vetted by
    re-running the performance model with the rotation ring added, which
    is the source of its optimization-time cost against CRUSH (~2x on
    the kernels). *)

type report = {
  groups : Share.shared_group list;
  singles : int;
  opt_time_s : float;  (** wall-clock, as {!Share.report} *)
  evaluations : int;  (** performance-model evaluations performed *)
}

(** BB-order legality: a group is orderable iff no member sits under
    divergent control flow, unless all members share one BB.  Exposed for
    the tests. *)
val bb_legal : Dataflow.Graph.t -> conditional_bbs:int list -> int list -> bool

(** The timed graph of one critical CFC with the rotation ring over the
    group's members in that CFC (program order, one circulating turn
    token) added; [None] when fewer than two members lie in the CFC.
    Exposed for the tests. *)
val rotation_graph :
  Context.t -> Analysis.Cfc.t -> int list -> Analysis.Timed_graph.edge list option

(** The expensive feasibility check: cycle ratio of every critical CFC
    with the group's rotation ring added must not exceed the CFC's II. *)
val rotation_preserves_ii : Context.t -> int list -> bool

(** Apply In-order sharing to the circuit in place.  [conditional_bbs]
    are the BBs under divergent control flow (from the frontend); with no
    BB organization (fast-token circuits) nothing can be shared. *)
val share :
  ?shareable:Dataflow.Types.opcode list ->
  Dataflow.Graph.t ->
  critical_loops:int list ->
  conditional_bbs:int list ->
  report
