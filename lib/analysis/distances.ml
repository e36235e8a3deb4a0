(** Maximum distances inside an SCC.

    Rule R3 of the sharing-group heuristic compares, for two candidate
    operations op_i and op_j of the same SCC, the maximum distance from
    every other SCC member to each of them: if some member is equidistant,
    the two operations always become ready simultaneously and sharing them
    penalizes the II (Figure 5).  SCCs of dataflow circuits are sparse
    rings, so enumerating simple paths with a budget is exact in practice
    and cheap; when the budget is exhausted the caller falls back
    conservatively (treating the distances as equal forbids the merge,
    which can only cost area, never correctness or II).

    The reference question is per pair: the longest simple path from
    [src] to [dst], enumerated depth-first without extending a path past
    [dst], and [`Budget_exhausted] once the enumeration has explored more
    than [budget] nodes.  That per-target tree is the tree of all simple
    paths from [src] with the subtrees below [dst] cut off.  So one
    enumeration of the whole tree from [src] answers every target at once:
    when it stays within the budget, so does every per-target tree, and
    the longest path to each target is the same.  Only a source whose
    whole tree blows the budget falls back to the per-target enumeration,
    which decides exactly which of its targets blow it too. *)

(* Encoded distances: [d >= 0] intermediate hops, or one of these. *)
let no_path = -1
let exhausted = -2
let unknown = -3

type t = {
  n : int;
  adj : int array array;  (** local successors; duplicate channels kept *)
  budget : int;
  dist : int array;  (** [dist.(dst * n + src)], encoded *)
  enumerated : bool array;  (** whole-tree enumeration tried, per source *)
}

let create ~budget ~succ members =
  let index = Hashtbl.create 64 in
  List.iteri (fun i u -> Hashtbl.replace index u i) members;
  let adj =
    Array.of_list
      (List.map
         (fun u -> Array.of_list (List.filter_map (Hashtbl.find_opt index) (succ u)))
         members)
  in
  let n = Array.length adj in
  { n; adj; budget; dist = Array.make (n * n) unknown; enumerated = Array.make n false }

let size t = t.n

exception Over_budget

(** Depth-first enumeration of the simple paths from [src]; [visit v len]
    sees every tree node, [len] hops from [src], and says whether to
    extend the path past [v].  Raises [Over_budget] on the node after
    the [budget]-th. *)
let enumerate t src visit =
  let on_path = Array.make t.n false in
  let explored = ref 0 in
  let rec go v len =
    incr explored;
    if !explored > t.budget then raise_notrace Over_budget;
    if visit v len then begin
      on_path.(v) <- true;
      let succ = t.adj.(v) in
      for k = 0 to Array.length succ - 1 do
        let w = succ.(k) in
        if not on_path.(w) then go w (len + 1)
      done;
      on_path.(v) <- false
    end
  in
  go src 0

(* The whole tree from [src]: every target's longest path, or nothing
   when the tree blows the budget. *)
let from_source t src =
  t.enumerated.(src) <- true;
  let best = Array.make t.n no_path in
  match
    enumerate t src (fun v len ->
        if len > 0 && len - 1 > best.(v) then best.(v) <- len - 1;
        true)
  with
  | () -> Array.iteri (fun dst d -> t.dist.((dst * t.n) + src) <- d) best
  | exception Over_budget -> ()

(* The per-target tree: paths stop at [dst]. *)
let to_target t src dst =
  let best = ref no_path in
  match
    enumerate t src (fun v len ->
        if v = dst && len > 0 then begin
          if len - 1 > !best then best := len - 1;
          false
        end
        else true)
  with
  | () -> !best
  | exception Over_budget -> exhausted

let code t src dst =
  if not t.enumerated.(src) then from_source t src;
  let i = (dst * t.n) + src in
  if t.dist.(i) = unknown then t.dist.(i) <- to_target t src dst;
  t.dist.(i)

let max_distance t src dst =
  match code t src dst with
  | d when d >= 0 -> Ok (Some d)
  | d when d = no_path -> Ok None
  | _ -> Error `Budget_exhausted
