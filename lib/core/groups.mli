(** Sharing-group heuristic (Algorithm 1 of the paper): greedy pairwise
    merging of singleton groups under rules R1 (same type), R2 (summed
    occupancy within unit capacity per critical CFC), R3 (no equidistant
    same-SCC members) and the Equation-2 cost check. *)

type group = { ops : int list }

(** R1: all operations have the same opcode and latency. *)
val check_r1 : Context.t -> int list -> bool

(** R2: in every critical CFC, the summed token occupancy of the group's
    members stays within the unit capacity (its pipeline depth). *)
val check_r2 : Context.t -> int list -> bool

(** R3: two members in one SCC of a critical CFC must have distinct
    maximum distances from every other SCC member (paper Figure 5).
    SCCs larger than 48 members are refused outright — the enumeration
    budget would exhaust on every probe, which is the same conservative
    no-merge verdict at a fraction of the cost.  An SCC's distances are
    built on its first same-SCC pair test: one bounded enumeration of
    all simple paths per member ({!Analysis.Distances}), exact within
    the budget of 20,000 explored nodes, with a per-target fallback for
    a member whose tree blows it.  A budget blown for a target refuses
    the pair.  {!infer} checks only the |A|·|B| pairs across the two
    groups of each merge; this checks every pair of [ops]. *)
val check_r3 : Context.t -> int list -> bool

(** Algorithm 1: merge the first profitable, rule-satisfying pair of
    groups until no merge is possible.  Each group carries its opcode,
    latency, size, largest credit and occupancy sum per critical CFC, so
    R1 is O(1) and R2 folds only the second group's members onto the
    first's sums (the same float additions as {!check_r2} on the merged
    list).  R2 and R3 refusals are remembered, and a merged group
    inherits those of its parts: both only get worse as groups grow.
    The Equation-2 cost test depends on sizes and is always re-run.
    [enforce_r3] (default true) exists for the ablation study. *)
val infer :
  ?shareable:Dataflow.Types.opcode list ->
  ?enforce_r3:bool ->
  Context.t ->
  group list

(** Groups that actually share (size >= 2). *)
val sharing_groups : group list -> group list
