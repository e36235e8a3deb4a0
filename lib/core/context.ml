(** Sharing-analysis context: everything the grouping and priority
    heuristics of Section 5 consume — the performance-critical CFCs with
    their IIs, unit occupancies, and per-CFC SCC decompositions. *)

open Dataflow

type t = {
  graph : Graph.t;
  critical : Analysis.Cfc.t list;
  sccs : (int * Analysis.Scc.t) list;  (** critical loop id -> CFC SCCs *)
}

let succ_in g in_scope uid = List.filter in_scope (Graph.successors g uid)

let make graph ~critical_loops =
  let critical = Analysis.Cfc.critical graph ~critical_loops in
  let sccs =
    List.map
      (fun (cfc : Analysis.Cfc.t) ->
        let scc =
          Analysis.Scc.compute ~nodes:cfc.units
            ~succ:(succ_in graph (Analysis.Cfc.mem cfc))
        in
        (cfc.loop_id, scc))
      critical
  in
  { graph; critical; sccs }

(** Occupancy of a unit inside one critical CFC (0 when outside). *)
let occupancy t (cfc : Analysis.Cfc.t) uid =
  if Analysis.Cfc.mem cfc uid then Analysis.Cfc.occupancy t.graph cfc uid
  else 0.0

(** The largest occupancy of a unit across all critical CFCs; operations
    outside every critical CFC are almost idle and get 0. *)
let max_occupancy t uid =
  List.fold_left (fun m cfc -> Float.max m (occupancy t cfc uid)) 0.0 t.critical

(** Initial credit count for an operation: N_CC = ceil(phi) + 1
    (Equation 3): phi credits keep the shared unit fed, one extra hides
    the credit-return latency. *)
let credits_for t uid =
  int_of_float (Float.ceil (max_occupancy t uid)) + 1

let sccs_of t loop_id = List.assoc loop_id t.sccs

let opcode_of t uid =
  match Graph.kind_of t.graph uid with
  | Types.Operator { op; _ } -> Some op
  | _ -> None

let latency_of t uid =
  match Graph.kind_of t.graph uid with
  | Types.Operator { latency; _ } -> latency
  | _ -> 0

(** Sharing candidates: pipelined operators of a shareable opcode.
    Sharing only pays off for expensive units (Section 4.3 discusses why
    integer adders are not worth sharing), so the default candidate set
    is the floating-point arithmetic units. *)
let default_shareable = Types.[ Fadd; Fsub; Fmul; Fdiv ]

let candidates ?(shareable = default_shareable) t =
  Graph.fold_units t.graph
    (fun acc u ->
      match u.Graph.kind with
      | Types.Operator { op; latency; _ } when latency > 0 && List.mem op shareable
        ->
          u.Graph.uid :: acc
      | _ -> acc)
    []
  |> List.rev
