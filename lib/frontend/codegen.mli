(** Dataflow-circuit generation from mini-C kernels: the Dynamatic role
    in the paper's toolflow.  Two generation strategies are supported
    (Section 6.5): the classic BB-organized flow [29], whose basic-block
    tags the In-order sharing baseline requires, and the fast-token flow
    [21], which omits BB organization for performance. *)

type strategy = Bb_ordered | Fast_token

val string_of_strategy : strategy -> string

type compiled = {
  name : string;
  graph : Dataflow.Graph.t;
  strategy : strategy;
  critical_loops : int list;  (** innermost loop of each nest *)
  all_loops : int list;
  conditional_bbs : int list;
      (** BBs under divergent control flow (if/else sides); the In-order
          baseline cannot order operations across them *)
}

(** Pipeline depth of load units (BRAM with registered output). *)
val load_latency : int

(** Compile a checked kernel AST.  Runs buffer rightsizing after
    generation (the MILP-sizing role of [34]).
    @raise Frontend.Error on ill-typed kernels (phase [Sema]), and on
    scalar parameters or codegen-level inconsistencies (phase [Codegen]). *)
val compile : ?strategy:strategy -> Ast.kernel -> compiled

(** Parse, check and compile kernel source text. *)
val compile_source : ?strategy:strategy -> string -> compiled
