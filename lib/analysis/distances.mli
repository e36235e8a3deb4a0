(** Maximum distances inside an SCC, for rule R3 of the sharing-group
    heuristic (paper Section 5.2): operations of one SCC that are
    equidistant from every other member always become ready
    simultaneously and must not share a unit (Figure 5).

    Each source's longest simple paths come from one bounded enumeration
    of all simple paths from it, run on its first query.  Every
    per-target enumeration — paths stopped at the target — is a pruned
    subtree of that tree, so within the budget the distances are exactly
    the per-target ones.  A source whose tree blows the budget falls back
    to the per-target enumeration, one target at a time, so a target
    reports [`Budget_exhausted] exactly when its own enumeration blows
    the budget. *)

(** One SCC: its members, numbered from 0 in the order given to
    {!create}, their successors among the members, and the distances
    computed so far. *)
type t

(** [create ~budget ~succ members]: successors outside [members] are
    ignored; duplicate edges are kept, each one a separate path for the
    budget.  Nothing is enumerated yet. *)
val create : budget:int -> succ:(int -> int list) -> int list -> t

(** Number of members. *)
val size : t -> int

(** Longest simple path length (intermediate hops) from member [src] to
    member [dst], both indices into the member list.  [Ok None] when no
    path exists; [Error `Budget_exhausted] when enumerating the paths from
    [src] that stop at [dst] explores more than [budget] nodes. *)
val max_distance : t -> int -> int -> (int option, [ `Budget_exhausted ]) result
