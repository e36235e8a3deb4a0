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
    no-merge verdict at a fraction of the cost.  {!infer} checks only
    the |A|·|B| pairs across the two groups of each merge; this checks
    every pair of [ops]. *)
val check_r3 : Context.t -> int list -> bool

(** Algorithm 1: merge the first profitable, rule-satisfying pair of
    groups until no merge is possible.  [enforce_r3] (default true)
    exists for the ablation study. *)
val infer :
  ?shareable:Dataflow.Types.opcode list ->
  ?enforce_r3:bool ->
  Context.t ->
  group list

(** Groups that actually share (size >= 2). *)
val sharing_groups : group list -> group list
