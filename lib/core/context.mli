(** Sharing-analysis context: everything the grouping and priority
    heuristics of Section 5 consume — the performance-critical CFCs with
    their IIs, unit occupancies, and per-CFC SCC decompositions. *)

type t = {
  graph : Dataflow.Graph.t;
  critical : Analysis.Cfc.t list;
  sccs : (int * Analysis.Scc.t) list;  (** critical loop id -> CFC SCCs *)
}

(** Successors of a unit restricted to the units satisfying [in_scope]
    (helper shared with the rule checks). *)
val succ_in : Dataflow.Graph.t -> (int -> bool) -> int -> int list

val make : Dataflow.Graph.t -> critical_loops:int list -> t

(** Occupancy of a unit inside one critical CFC (0 when outside). *)
val occupancy : t -> Analysis.Cfc.t -> int -> float

(** The largest occupancy of a unit across all critical CFCs. *)
val max_occupancy : t -> int -> float

(** Initial credit count: N_CC = ceil(phi) + 1 (Equation 3). *)
val credits_for : t -> int -> int

val sccs_of : t -> int -> Analysis.Scc.t
val opcode_of : t -> int -> Dataflow.Types.opcode option
val latency_of : t -> int -> int

(** The opcodes worth sharing by default: floating-point arithmetic
    (Section 4.3 discusses why integer adders are not). *)
val default_shareable : Dataflow.Types.opcode list

(** Sharing candidates: pipelined operators of a shareable opcode. *)
val candidates : ?shareable:Dataflow.Types.opcode list -> t -> int list
