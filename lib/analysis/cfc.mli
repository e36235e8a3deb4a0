(** Choice-free circuits (CFCs) and their performance figures.

    A CFC is the subcircuit of one loop; the performance-critical CFCs
    are the innermost loop of each nest, whose initiation interval (II)
    is the optimization target (paper Sections 2.1 and 5).  The achieved
    II combines a latency/token cycle-ratio bound with a memory-port
    bound. *)

type t = {
  loop_id : int;
  units : int list;
  scope : (int, unit) Hashtbl.t;  (** membership table of [units]; see {!mem} *)
  ii : Cycle_ratio.result;  (** token/latency bound over cycles *)
  mem_ii : int;             (** memory-port bound: accesses per port *)
}

val units_of_loop : Dataflow.Graph.t -> int -> int list

(** Loop ids present in the circuit's unit tags, sorted. *)
val loop_ids : Dataflow.Graph.t -> int list

val of_loop : Dataflow.Graph.t -> int -> t

(** All CFCs, one per loop id present. *)
val all : Dataflow.Graph.t -> t list

(** The performance-critical CFCs (one per loop in [critical_loops]). *)
val critical : Dataflow.Graph.t -> critical_loops:int list -> t list

(** Is the unit in the CFC?  A hash lookup. *)
val mem : t -> int -> bool

(** Achievable II: the larger of the cycle-ratio and memory-port bounds;
    [None] when a token-free cycle makes it unbounded. *)
val ii_value : t -> float option

(** Token occupancy of a pipelined unit in its CFC: lat / II. *)
val occupancy : Dataflow.Graph.t -> t -> int -> float

(** Max occupancy per unit across the given CFCs, keyed by unit id. *)
val occupancies : Dataflow.Graph.t -> t list -> (int, float) Hashtbl.t
