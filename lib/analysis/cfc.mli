(** Choice-free circuits (CFCs) and their performance figures.

    A CFC is the subcircuit of one loop; the performance-critical CFCs
    are the innermost loop of each nest, whose initiation interval (II)
    is the optimization target (paper Sections 2.1 and 5).  The achieved
    II combines a latency/token cycle-ratio bound with a memory-port
    bound. *)

type t = {
  loop_id : int;
  units : int list;  (** unit ids, highest first *)
  edges : Timed_graph.edge list;
      (** timed edges between its units, in reverse channel order *)
  tags : int array;
      (** loop tag per unit id when the CFC was built, shared by the
          CFCs of one pass; see {!mem} *)
  ii : Cycle_ratio.result;  (** token/latency bound over cycles *)
  mem_ii : int;             (** memory-port bound: accesses per port *)
}

(** The CFCs of the given loops, in the given order, from one pass over
    the circuit's units and channels. *)
val of_loops : Dataflow.Graph.t -> int list -> t list

val of_loop : Dataflow.Graph.t -> int -> t

(** All CFCs, one per loop id present, in one pass. *)
val all : Dataflow.Graph.t -> t list

(** The performance-critical CFCs (one per loop in [critical_loops]). *)
val critical : Dataflow.Graph.t -> critical_loops:int list -> t list

(** Was the unit in the CFC's loop when the CFC was built?  Units added
    later are not.  An array lookup. *)
val mem : t -> int -> bool

(** Achievable II: the larger of the cycle-ratio and memory-port bounds;
    [None] when a token-free cycle makes it unbounded. *)
val ii_value : t -> float option

(** Token occupancy of a pipelined unit in its CFC: lat / II. *)
val occupancy : Dataflow.Graph.t -> t -> int -> float

(** Max occupancy per unit across the given CFCs, keyed by unit id. *)
val occupancies : Dataflow.Graph.t -> t list -> (int, float) Hashtbl.t
