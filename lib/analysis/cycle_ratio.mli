(** Maximum cycle ratio of a timed event graph — the initiation interval
    of a choice-free circuit is the maximum over its directed cycles of
    latency / tokens (paper Section 2.1; the analytic counterpart of the
    MILP throughput model).  Computed by ratio iteration with
    Bellman–Ford positive-cycle detection, then reported through a fixed
    parametric bisection.

    Representation: each call packs its [m] edges once into parallel
    arrays indexed by list position ([src], [dst], [latency], [tokens],
    endpoints renumbered [0 .. n-1] in order of first appearance through
    an int array indexed by endpoint, so endpoints must be non-negative)
    plus one weight, one distance and one parent array that every
    Bellman–Ford run reuses.  Nothing is retained between calls.

    Cost, for [n] distinct endpoints and the largest endpoint [k]:
    packing is O(k + m), the cycle test O(n + m).  One linear SCC pass
    over the token-free edges rules out a token-free cycle with positive
    latency; only when a token-free edge has a negative latency, which
    could cancel the positive ones, does a Bellman–Ford run decide it
    instead.  Each Bellman–Ford run is at most [n + 1] rounds over the
    edges, O(n·m), but stops at the first round (of 1, 2, 4, 8, ...)
    whose parent graph closes a cycle with a higher ratio, so runs that
    find a cycle are short.  A call makes one run per ratio-iteration
    step (each moves to a strictly higher cycle ratio) and one final run
    that finds nothing; on the circuits of the [optimize] benchmark that
    averages three runs and two steps (701 runs over one round's 239
    calls).  The log2((sum of latencies + 2) / eps) bisection
    steps then cost O(1) each: they test the critical cycle's weight
    instead of running Bellman–Ford.  The arithmetic (bounds, midpoints,
    eps = 1e-4) is fixed, and with integer latencies and tokens the
    critical cycle decides every midpoint exactly as a Bellman–Ford run
    would, so results are bit-reproducible. *)

type result =
  | Ratio of float  (** the maximum cycle ratio (the achievable II) *)
  | Unbounded       (** a cycle carries latency but no tokens: deadlock *)
  | Acyclic         (** no cycle in scope *)

(** Does the edge set contain any directed cycle?  Kahn's topological
    check, O(n + m). *)
val has_cycle : Timed_graph.edge list -> bool

(** Maximum cycle ratio within absolute precision 1e-4. *)
val compute : Timed_graph.edge list -> result

val pp : result Fmt.t
