(** Choice-free circuits (CFCs) and their performance figures.

    A CFC is a subcircuit with no conditional execution; performance
    optimization of dataflow circuits is done per CFC, and the primary
    goal is the initiation interval (II) of the performance-critical ones
    — the innermost loop of each loop nest (Sections 2.1 and 5).  The
    frontend tags every unit with its innermost enclosing loop id, which
    is the membership criterion used here.

    One pass builds the CFCs of any number of loops: it records every
    unit's tag in an array, buckets the units and then the channels by
    tag, and runs the cycle-ratio solver once per bucket. *)

open Dataflow

type t = {
  loop_id : int;
  units : int list;  (** unit ids, highest first *)
  edges : Timed_graph.edge list;
      (** timed edges between its units, in reverse channel order *)
  tags : int array;
      (** loop tag per unit id when the CFC was built, shared by the
          CFCs of one pass; see {!mem} *)
  ii : Cycle_ratio.result;    (** token/latency bound over cycles *)
  mem_ii : int;               (** memory-port bound: accesses per port *)
}

(* The tag of a removed unit: no loop has it. *)
let removed = min_int

let tags_of g =
  let tags = Array.make g.Graph.n_units removed in
  Graph.iter_units g (fun u -> tags.(u.Graph.uid) <- u.Graph.loop);
  tags

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

(* Position of [l] in the sorted array [ids], or -1. *)
let find ids l =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      if ids.(mid) = l then mid else if ids.(mid) < l then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ids)

(* The one pass: bucket the units by tag, then each channel whose two
   ends share a requested tag, and analyse each bucket once. *)
let build g tags loops =
  let ids = Array.of_list (List.sort_uniq compare loops) in
  let slot = Array.map (find ids) tags in
  let units = Array.make (Array.length ids) [] in
  Array.iteri (fun uid s -> if s >= 0 then units.(s) <- uid :: units.(s)) slot;
  let edges = Array.make (Array.length ids) [] in
  Graph.iter_channels g (fun c ->
      let s = slot.(c.Graph.src.unit_id) in
      if s >= 0 && slot.(c.Graph.dst.unit_id) = s then
        edges.(s) <- Timed_graph.of_channel g c :: edges.(s));
  let cfcs =
    Array.mapi
      (fun s loop_id ->
        {
          loop_id;
          units = units.(s);
          edges = edges.(s);
          tags;
          ii = Cycle_ratio.compute edges.(s);
          mem_ii = memory_port_bound g units.(s);
        })
      ids
  in
  List.map (fun l -> cfcs.(find ids l)) loops

let of_loops g loops = build g (tags_of g) loops

let of_loop g loop_id = List.hd (of_loops g [ loop_id ])

(** All CFCs of the circuit, one per loop id present in the unit tags. *)
let all g =
  let tags = tags_of g in
  build g tags
    (List.sort_uniq compare
       (Array.fold_left (fun acc l -> if l >= 0 then l :: acc else acc) [] tags))

(** The performance-critical CFCs: those whose loop id appears in
    [critical_loops] — typically the innermost loop of each nest, as
    reported by the frontend. *)
let critical g ~critical_loops = of_loops g critical_loops

let mem cfc uid =
  uid >= 0 && uid < Array.length cfc.tags && cfc.tags.(uid) = cfc.loop_id

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
