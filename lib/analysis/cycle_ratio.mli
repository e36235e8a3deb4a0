(** Maximum cycle ratio of a timed event graph — the initiation interval
    of a choice-free circuit is the maximum over its directed cycles of
    latency / tokens (paper Section 2.1; the analytic counterpart of the
    MILP throughput model).  Computed by parametric search with
    Bellman–Ford positive-cycle detection.

    Representation: each call packs its [m] edges once into parallel
    arrays indexed by list position ([src], [dst], [latency], [tokens],
    endpoints renumbered [0 .. n-1]) plus one weight and one distance
    array that every Bellman–Ford run reuses.  Nothing is retained
    between calls.

    Cost, for [n] distinct endpoints: packing and the cycle test are
    O(n + m); each bisection step is one Bellman–Ford run of at most
    [n + 1] rounds over the edges, O(n·m); the bisection takes
    log2((sum of latencies + 2) / eps) steps.  The arithmetic (bounds,
    midpoints, list-order relaxation, the 1e-9 tolerance and the round
    cap) is fixed, so results are bit-reproducible. *)

type result =
  | Ratio of float  (** the maximum cycle ratio (the achievable II) *)
  | Unbounded       (** a cycle carries latency but no tokens: deadlock *)
  | Acyclic         (** no cycle in scope *)

(** Does the edge set contain any directed cycle?  Kahn's topological
    check, O(n + m). *)
val has_cycle : Timed_graph.edge list -> bool

(** Maximum cycle ratio within absolute precision [eps] (default 1e-4). *)
val compute : ?eps:float -> Timed_graph.edge list -> result

val pp : result Fmt.t
