(** Strongly connected components (Tarjan, iterative) and SCC condensation
    graphs.  Both sharing heuristics of the paper rest on this analysis:
    rule R3 forbids sharing operations of one SCC that always start
    simultaneously, and the access-priority heuristic follows a
    topological order of the SCC graph (Sections 5.2 and 5.3). *)

type t = {
  component : int array;  (** node -> component id; -1 outside [nodes] *)
  members : int list array;  (** component id -> nodes *)
}

(* Tarjan's algorithm on nodes [0 .. n-1], with the successors of [v] at
   [adj.(first.(v)) .. adj.(first.(v+1) - 1)] and roots tried in node
   order.  The DFS keeps its own stack, so deep graphs are safe.  Returns
   each node's component, numbered in completion order, the nodes in the
   order they left the stack, and the component count. *)
let tarjan ~n ~first ~adj =
  let index = Array.make n (-1) and lowlink = Array.make n 0 in
  let on_stack = Array.make n false and comp = Array.make n (-1) in
  let stack = Array.make n 0 and sp = ref 0 in
  let popped = Array.make n 0 and np = ref 0 in
  (* DFS frames: a node, and the position of its next successor. *)
  let frame = Array.make n 0 and cursor = Array.make n 0 and depth = ref 0 in
  let next_index = ref 0 and n_comps = ref 0 in
  let enter v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    frame.(!depth) <- v;
    cursor.(v) <- first.(v);
    incr depth
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then enter root;
    while !depth > 0 do
      let v = frame.(!depth - 1) in
      let k = cursor.(v) in
      if k < first.(v + 1) then begin
        cursor.(v) <- k + 1;
        let w = adj.(k) in
        if index.(w) < 0 then enter w
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
      end
      else begin
        decr depth;
        if lowlink.(v) = index.(v) then begin
          let c = !n_comps in
          incr n_comps;
          let rec pop () =
            decr sp;
            let w = stack.(!sp) in
            on_stack.(w) <- false;
            comp.(w) <- c;
            popped.(!np) <- w;
            incr np;
            if w <> v then pop ()
          in
          pop ()
        end;
        if !depth > 0 then begin
          let parent = frame.(!depth - 1) in
          lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
        end
      end
    done
  done;
  (comp, popped, !n_comps)

let components ~n ~first ~adj =
  let comp, _, _ = tarjan ~n ~first ~adj in
  comp

(** [compute ~nodes ~succ] returns the SCCs of the directed graph induced
    by [nodes] (non-negative ids, such as unit ids); [succ n] lists the
    successors of [n] (successors outside [nodes] are ignored).
    Component ids are in reverse topological order of the condensation
    (id 0 has no predecessors among later ids), and each component lists
    its nodes in the order the DFS reached them. *)
let compute ~nodes ~succ =
  let bound = List.fold_left (fun b v -> max b (v + 1)) 0 nodes in
  (* Dense numbering in [nodes] order, so roots are tried in that order. *)
  let dense = Array.make bound (-1) and n = ref 0 in
  List.iter
    (fun v ->
      if dense.(v) < 0 then begin
        dense.(v) <- !n;
        incr n
      end)
    nodes;
  let n = !n in
  let ids = Array.make n 0 in
  Array.iteri (fun v i -> if i >= 0 then ids.(i) <- v) dense;
  let local =
    Array.map
      (fun v ->
        List.filter_map
          (fun w -> if w >= 0 && w < bound && dense.(w) >= 0 then Some dense.(w) else None)
          (succ v))
      ids
  in
  let first = Array.make (n + 1) 0 in
  Array.iteri (fun i ws -> first.(i + 1) <- first.(i) + List.length ws) local;
  let adj = Array.make first.(n) 0 in
  Array.iteri (fun i ws -> List.iteri (fun k w -> adj.(first.(i) + k) <- w) ws) local;
  let comp, popped, count = tarjan ~n ~first ~adj in
  (* Renumber: the last component completed gets id 0. *)
  let component = Array.make bound (-1) and members = Array.make count [] in
  Array.iteri (fun i c -> component.(ids.(i)) <- count - 1 - c) comp;
  Array.iter
    (fun i ->
      let c = count - 1 - comp.(i) in
      members.(c) <- ids.(i) :: members.(c))
    popped;
  { component; members }

let component_of t n =
  if n >= 0 && n < Array.length t.component && t.component.(n) >= 0 then
    Some t.component.(n)
  else None

let same_component t a b =
  match (component_of t a, component_of t b) with
  | Some x, Some y -> x = y
  | _ -> false

let n_components t = Array.length t.members

let members t cid = t.members.(cid)

(** Condensation: edges between distinct components, deduplicated. *)
let condensation t ~nodes ~succ =
  let edges = Hashtbl.create 97 in
  List.iter
    (fun n ->
      match component_of t n with
      | None -> ()
      | Some cn ->
          List.iter
            (fun m ->
              match component_of t m with
              | Some cm when cm <> cn -> Hashtbl.replace edges (cn, cm) ()
              | _ -> ())
            (succ n))
    nodes;
  Hashtbl.fold (fun e () acc -> e :: acc) edges []

(** Topological order of the condensation: maps component id to rank.
    The condensation is acyclic by construction. *)
let topological_order t ~nodes ~succ =
  let n = n_components t in
  let adj = Array.make n [] in
  let indeg = Array.make n 0 in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      indeg.(b) <- indeg.(b) + 1)
    (condensation t ~nodes ~succ);
  let rank = Array.make n (-1) in
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let next = ref 0 in
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    rank.(c) <- !next;
    incr next;
    List.iter
      (fun d ->
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then Queue.add d queue)
      adj.(c)
  done;
  rank
