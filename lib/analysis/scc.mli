(** Strongly connected components (iterative Tarjan) and condensation
    graphs — the backbone of both sharing heuristics (rule R3 and the
    priority order, paper Sections 5.2–5.3). *)

type t

(** SCCs of the directed graph induced by [nodes], which are
    non-negative ids such as unit ids; successors outside [nodes] are
    ignored.  Iterative, with Tarjan's state in arrays indexed by node:
    safe on very deep graphs. *)
val compute : nodes:int list -> succ:(int -> int list) -> t

(** Tarjan on a packed graph of nodes [0 .. n-1], the successors of [v]
    being [adj.(first.(v)) .. adj.(first.(v+1) - 1)]: each node's
    component.  Two nodes share a component iff they share an SCC. *)
val components : n:int -> first:int array -> adj:int array -> int array

val component_of : t -> int -> int option
val same_component : t -> int -> int -> bool
val n_components : t -> int
val members : t -> int -> int list

(** Deduplicated edges between distinct components. *)
val condensation :
  t -> nodes:int list -> succ:(int -> int list) -> (int * int) list

(** Topological rank per component id (the condensation is acyclic). *)
val topological_order :
  t -> nodes:int list -> succ:(int -> int list) -> int array
