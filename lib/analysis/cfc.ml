(** Choice-free circuits (CFCs) and their performance figures.

    A CFC is a subcircuit with no conditional execution; performance
    optimization of dataflow circuits is done per CFC, and the primary
    goal is the initiation interval (II) of the performance-critical ones
    — the innermost loop of each loop nest (Sections 2.1 and 5).  The
    frontend tags every unit with its innermost enclosing loop id, which
    is the membership criterion used here. *)

open Dataflow

type t = {
  loop_id : int;
  units : int list;
  scope : (int, unit) Hashtbl.t;  (** membership table of [units] *)
  ii : Cycle_ratio.result;    (** token/latency bound over cycles *)
  mem_ii : int;               (** memory-port bound: accesses per port *)
}

(** Units belonging to loop [loop_id]. *)
let units_of_loop g loop_id =
  Graph.fold_units g
    (fun acc u -> if u.Graph.loop = loop_id then u.Graph.uid :: acc else acc)
    []

let loop_ids g =
  let tbl = Hashtbl.create 7 in
  Graph.iter_units g (fun u -> if u.Graph.loop >= 0 then Hashtbl.replace tbl u.Graph.loop ());
  List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) tbl [])

(** Each array memory has one load port and one store port; a CFC issuing
    k accesses per iteration to one port cannot run faster than II = k.
    This resource bound complements the cycle-ratio bound (the MILP of
    the original toolflow captures both). *)
let memory_port_bound g units =
  let tbl = Hashtbl.create 7 in
  let bump key =
    Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)
  in
  List.iter
    (fun uid ->
      match Graph.kind_of g uid with
      | Types.Load { memory; _ } -> bump (memory, `Load)
      | Types.Store { memory } -> bump (memory, `Store)
      | _ -> ())
    units;
  Hashtbl.fold (fun _ n acc -> max n acc) tbl 1

let of_loop g loop_id =
  let units = units_of_loop g loop_id in
  let scope = Hashtbl.create 97 in
  List.iter (fun u -> Hashtbl.replace scope u ()) units;
  let edges = Timed_graph.edges g ~in_scope:(Hashtbl.mem scope) in
  {
    loop_id;
    units;
    scope;
    ii = Cycle_ratio.compute edges;
    mem_ii = memory_port_bound g units;
  }

(** All CFCs of the circuit, one per loop id present in the unit tags. *)
let all g = List.map (of_loop g) (loop_ids g)

(** The performance-critical CFCs: those whose loop id appears in
    [critical_loops] — typically the innermost loop of each nest, as
    reported by the frontend. *)
let critical g ~critical_loops =
  List.map (of_loop g) critical_loops

let mem cfc uid = Hashtbl.mem cfc.scope uid

(** Achievable II of the CFC: the larger of the cycle-ratio bound and the
    memory-port bound; [None] when a token-free cycle makes it unbounded. *)
let ii_value cfc =
  match cfc.ii with
  | Cycle_ratio.Ratio r -> Some (Float.max r (float_of_int cfc.mem_ii))
  | Cycle_ratio.Acyclic -> Some (float_of_int cfc.mem_ii)
  | Cycle_ratio.Unbounded -> None

(** Token occupancy of a pipelined unit in its CFC: lat / II (Section 2.1).
    Units outside any token-limited cycle context default to occupancy
    [lat] (conservative: a full pipeline). *)
let occupancy g cfc uid =
  let lat = Timed_graph.unit_latency (Graph.kind_of g uid) in
  match ii_value cfc with
  | Some ii when ii > 0.0 -> float_of_int lat /. ii
  | _ -> float_of_int lat

(** Occupancies of every unit of every critical CFC, keyed by unit id.
    A unit appearing in several CFCs keeps its maximum occupancy. *)
let occupancies g cfcs =
  let tbl = Hashtbl.create 97 in
  List.iter
    (fun cfc ->
      List.iter
        (fun uid ->
          let phi = occupancy g cfc uid in
          let prev = Option.value (Hashtbl.find_opt tbl uid) ~default:0.0 in
          Hashtbl.replace tbl uid (Float.max prev phi))
        cfc.units)
    cfcs;
  tbl
