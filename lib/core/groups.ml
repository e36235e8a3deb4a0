(** Sharing-group heuristic (Algorithm 1 of the paper).

    Starting from singleton groups over the sharing candidates, greedily
    merge pairs until fixpoint.  A merge must pass:

    - R1: all operations have the same type (opcode and latency);
    - R2: in every performance-critical CFC, the summed token occupancy
      of the group's members stays within the unit capacity (its pipeline
      depth) — otherwise the shared unit cannot sustain the II;
    - R3: two members in the same SCC of a critical CFC must have
      distinct maximum distances from every other SCC member — members
      that always become ready simultaneously would serialize and
      penalize the II (paper Figure 5);
    - the cost model (Equation 2): the bigger wrapper must cost less than
      the unit it saves. *)


type group = { ops : int list }

let check_r1 ctx ops =
  match ops with
  | [] -> true
  | o :: rest ->
      let op0 = Context.opcode_of ctx o and l0 = Context.latency_of ctx o in
      List.for_all
        (fun o' -> Context.opcode_of ctx o' = op0 && Context.latency_of ctx o' = l0)
        rest

let capacity ctx ops =
  match ops with [] -> 0 | o :: _ -> Context.latency_of ctx o

let within_capacity latency sum = sum <= float_of_int latency +. 1e-9

let check_r2 ctx ops =
  let cap = capacity ctx ops in
  List.for_all
    (fun cfc ->
      within_capacity cap
        (List.fold_left (fun acc o -> acc +. Context.occupancy ctx cfc o) 0.0 ops))
    ctx.Context.critical

(** SCCs above this size are refused outright.  Dataflow SCCs are
    sparse rings in real kernels; a dense SCC (e.g. a machine-generated
    expression forest feeding one accumulator) exhausts the
    path-enumeration budget on essentially every probe, which already
    means "conservatively forbid the merge" — refusing upfront gives the
    same verdict without burning the budget once per (member, pair). *)
let max_r3_scc_members = 48

(** Where an operation sits for R3 in one critical CFC (by index): its
    SCC, when that SCC has other members, and its index among them.  An
    operation alone in its SCC shares it with no one and has no place. *)
type place = { cfc : int; comp : int; index : int }

(** R3's view of a context: the critical CFCs' SCCs, and each SCC's
    distances, built on its first same-SCC pair test ([None] when the
    SCC has over {!max_r3_scc_members} members). *)
type r3 = {
  graph : Dataflow.Graph.t;
  sccs : Analysis.Scc.t array;
  scc_distances : (int * int, Analysis.Distances.t option) Hashtbl.t;
}

let r3_of ctx =
  {
    graph = ctx.Context.graph;
    sccs =
      Array.of_list
        (List.map
           (fun (cfc : Analysis.Cfc.t) -> Context.sccs_of ctx cfc.loop_id)
           ctx.Context.critical);
    scc_distances = Hashtbl.create 8;
  }

let places r3 o =
  let acc = ref [] in
  Array.iteri
    (fun cfc scc ->
      match Analysis.Scc.component_of scc o with
      | None -> ()
      | Some comp -> (
          match Analysis.Scc.members scc comp with
          | [ _ ] -> ()
          | members ->
              let index = Option.get (List.find_index (( = ) o) members) in
              acc := { cfc; comp; index } :: !acc))
    r3.sccs;
  !acc

let distances r3 p =
  let key = (p.cfc, p.comp) in
  match Hashtbl.find_opt r3.scc_distances key with
  | Some d -> d
  | None ->
      let members = Analysis.Scc.members r3.sccs.(p.cfc) p.comp in
      let d =
        if List.compare_length_with members max_r3_scc_members > 0 then None
        else
          Some
            (Analysis.Distances.create ~budget:20_000
               ~succ:(Dataflow.Graph.successors r3.graph) members)
      in
      Hashtbl.add r3.scc_distances key d;
      d

(** R3 on one pair of operations: if they lie in the same SCC, every
    other member must be at distinct maximum distances from the two. *)
let pair_ok r3 p q =
  p.cfc <> q.cfc || p.comp <> q.comp
  ||
  match distances r3 p with
  | None -> false
  | Some d ->
      let dist u target = Analysis.Distances.max_distance d u target in
      let distinct u =
        match (dist u p.index, dist u q.index) with
        | Ok (Some di), Ok (Some dj) -> di <> dj
        | Ok None, Ok _ | Ok _, Ok None -> true
        | Error `Budget_exhausted, _ | _, Error `Budget_exhausted ->
            (* Conservative: equidistant, forbid the merge. *)
            false
      in
      let rec from u =
        u = Analysis.Distances.size d
        || ((u = p.index || u = q.index || distinct u) && from (u + 1))
      in
      from 0

(** R3 for the union of two groups that each satisfy it, given their
    members' places: the pairs inside one group passed when that group
    was merged, so only the pairs across the two remain to check. *)
let r3_across r3 a b = List.for_all (fun p -> List.for_all (pair_ok r3 p) b) a

let check_r3 ctx ops =
  let r3 = r3_of ctx in
  let rec go = function
    | [] -> true
    | p :: rest -> List.for_all (r3_across r3 p) rest && go rest
  in
  go (List.map (places r3) ops)

(** A group during the search, with the facts the rules read. *)
type node = {
  slot : int;  (** its row of the refusal memo; a merge keeps the first group's *)
  members : (int * float array) list;
      (** operation and its occupancy per critical CFC, in group order *)
  op : Dataflow.Types.opcode;
  latency : int;
  size : int;
  credit : int;  (** the largest member credit (Equation 3), at least 1 *)
  occupancy : float array;
      (** per critical CFC, the member occupancies summed in group order *)
  places : place list;  (** the members' R3 places *)
}

(** [sums] extended by the occupancies of [members], one addition per
    member in list order: the same float operations as summing the
    concatenated member list from zero, so R2's verdicts are exactly
    those of {!check_r2}. *)
let add_occupancy sums members =
  let sums = Array.copy sums in
  List.iter
    (fun (_, occ) -> Array.iteri (fun k x -> sums.(k) <- sums.(k) +. x) occ)
    members;
  sums

let singleton ctx r3 slot o =
  let occ =
    Array.of_list
      (List.map (fun cfc -> Context.occupancy ctx cfc o) ctx.Context.critical)
  in
  {
    slot;
    members = [ (o, occ) ];
    op = Option.get (Context.opcode_of ctx o);
    latency = Context.latency_of ctx o;
    size = 1;
    credit = max 1 (Context.credits_for ctx o);
    occupancy = add_occupancy (Array.make (Array.length occ) 0.0) [ (o, occ) ];
    places = places r3 o;
  }

(** Refused pairs of groups: a symmetric bit matrix over slots.  R2 and
    R3 refusals only get worse as groups grow — occupancy sums only
    increase, and a refused pair of members stays a pair across the two
    groups — so a merged group inherits the refusals of both its parts.
    The cost test depends on group sizes and is never memoized. *)
type memo = { n : int; refused : Bytes.t }

let memo n = { n; refused = Bytes.make (n * n) '\000' }
let refused m a b = Bytes.get m.refused ((a.slot * m.n) + b.slot) <> '\000'

let refuse m i j =
  Bytes.set m.refused ((i * m.n) + j) '\001';
  Bytes.set m.refused ((j * m.n) + i) '\001'

let absorb m ~into ~from =
  for x = 0 to m.n - 1 do
    if Bytes.get m.refused ((from * m.n) + x) <> '\000' then refuse m into x
  done

(** One grouping step: merge the first profitable, rule-satisfying pair
    of groups; [None] when no merge is possible. *)
let try_merge ~enforce_r3 memo r3 groups =
  let arr = Array.of_list groups in
  let n = Array.length arr in
  let result = ref None in
  (try
     for i = 0 to n - 1 do
       for j = i + 1 to n - 1 do
         let a = arr.(i) and b = arr.(j) in
         if (not (refused memo a b)) && a.op = b.op && a.latency = b.latency
         then begin
           let occupancy = add_occupancy a.occupancy b.members in
           if
             not
               (Array.for_all (within_capacity a.latency) occupancy
               && ((not enforce_r3) || r3_across r3 a.places b.places))
           then refuse memo a.slot b.slot
           else begin
             let credit = max a.credit b.credit in
             if Cost.merge_profitable ~op:a.op ~credit ~a:a.size ~b:b.size
             then begin
               absorb memo ~into:a.slot ~from:b.slot;
               let merged =
                 {
                   a with
                   members = a.members @ b.members;
                   size = a.size + b.size;
                   credit;
                   occupancy;
                   places = a.places @ b.places;
                 }
               in
               let rest =
                 Array.to_list arr
                 |> List.filteri (fun k _ -> k <> i && k <> j)
               in
               result := Some (merged :: rest);
               raise Exit
             end
           end
         end
       done
     done
   with Exit -> ());
  !result

(** Algorithm 1: greedy merging until no change can be made.
    [enforce_r3] exists for the ablation study of rule R3 only. *)
let infer ?shareable ?(enforce_r3 = true) ctx =
  let candidates = Context.candidates ?shareable ctx in
  let r3 = r3_of ctx in
  let memo = memo (List.length candidates) in
  let groups = ref (List.mapi (singleton ctx r3) candidates) in
  let continue_ = ref true in
  while !continue_ do
    match try_merge ~enforce_r3 memo r3 !groups with
    | Some gs -> groups := gs
    | None -> continue_ := false
  done;
  List.map (fun g -> { ops = List.map fst g.members }) !groups

(** Groups that actually share (size >= 2). *)
let sharing_groups groups = List.filter (fun g -> List.length g.ops >= 2) groups
