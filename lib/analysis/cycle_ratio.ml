(** Maximum cycle ratio of a timed event graph.

    The initiation interval of a choice-free circuit is the maximum over
    its directed cycles C of latency(C) / tokens(C) (Section 2.1 of the
    paper; this is the analytic counterpart of the MILP throughput model
    of Josipović et al. that Dynamatic solves with Gurobi).  We compute it
    by parametric search: a ratio [lam] is feasible iff no cycle has
    positive weight under edge weights [latency - lam * tokens], tested
    with Bellman–Ford.

    The edge list is packed once per call into parallel arrays indexed by
    edge position, with endpoints renumbered densely; every Bellman–Ford
    run then reuses one weight array and one distance array. *)

type result =
  | Ratio of float  (** the maximum cycle ratio (the achievable II) *)
  | Unbounded       (** a cycle carries latency but no tokens: deadlock *)
  | Acyclic         (** no cycle in scope: II limited by input rate only *)

type packed = {
  nodes : int;            (** distinct endpoints, numbered [0 .. nodes-1] *)
  src : int array;
  dst : int array;
  latency : float array;
  tokens : float array;
  weight : float array;   (** [latency - lam * tokens] for the current [lam] *)
  dist : float array;     (** longest-path estimates, one per node *)
}

let pack (edges : Timed_graph.edge list) =
  let m = List.length edges in
  let index = Hashtbl.create 16 in
  let node id =
    match Hashtbl.find_opt index id with
    | Some i -> i
    | None ->
        let i = Hashtbl.length index in
        Hashtbl.add index id i;
        i
  in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let latency = Array.make m 0.0 and tokens = Array.make m 0.0 in
  List.iteri
    (fun i (e : Timed_graph.edge) ->
      src.(i) <- node e.src;
      dst.(i) <- node e.dst;
      latency.(i) <- float_of_int e.latency;
      tokens.(i) <- float_of_int e.tokens)
    edges;
  let nodes = Hashtbl.length index in
  {
    nodes;
    src;
    dst;
    latency;
    tokens;
    weight = Array.make m 0.0;
    dist = Array.make nodes 0.0;
  }

(* Bellman-Ford positive-cycle detection on weights lat - lam*tok: at most
   [nodes + 1] rounds relaxing the edges in list order, with a 1e-9
   tolerance against float noise. *)
let has_positive_cycle p lam =
  let n = p.nodes and m = Array.length p.src in
  if n = 0 then false
  else begin
    let src = p.src and dst = p.dst and weight = p.weight and dist = p.dist in
    for i = 0 to m - 1 do
      weight.(i) <- p.latency.(i) -. (lam *. p.tokens.(i))
    done;
    Array.fill dist 0 n 0.0;
    let changed = ref true in
    let round = ref 0 in
    (* The hot loop.  Unchecked accesses are safe: [i < m] indexes the
       edge arrays and [pack] numbers every endpoint below [n]. *)
    while !changed && !round <= n do
      changed := false;
      for i = 0 to m - 1 do
        let v = Array.unsafe_get dst i in
        let d =
          Array.unsafe_get dist (Array.unsafe_get src i) +. Array.unsafe_get weight i
        in
        if d > Array.unsafe_get dist v +. 1e-9 then begin
          Array.unsafe_set dist v d;
          changed := true
        end
      done;
      incr round
    done;
    !changed
  end

(* Kahn's algorithm: the graph is acyclic iff repeatedly removing nodes
   without incoming edges removes them all. *)
let packed_has_cycle p =
  let n = p.nodes and m = Array.length p.src in
  let indeg = Array.make n 0 and first = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    indeg.(p.dst.(i)) <- indeg.(p.dst.(i)) + 1;
    first.(p.src.(i) + 1) <- first.(p.src.(i) + 1) + 1
  done;
  for u = 1 to n do
    first.(u) <- first.(u) + first.(u - 1)
  done;
  (* [succ.(first.(u) .. first.(u+1)-1)] are the heads of u's edges. *)
  let succ = Array.make m 0 and fill = Array.sub first 0 n in
  for i = 0 to m - 1 do
    let u = p.src.(i) in
    succ.(fill.(u)) <- p.dst.(i);
    fill.(u) <- fill.(u) + 1
  done;
  let queue = Array.make n 0 and tail = ref 0 in
  for u = 0 to n - 1 do
    if indeg.(u) = 0 then begin
      queue.(!tail) <- u;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = first.(u) to first.(u + 1) - 1 do
      let v = succ.(k) in
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then begin
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  !tail < n

let has_cycle edges = packed_has_cycle (pack edges)

(** Maximum cycle ratio of [edges], within absolute precision [eps]. *)
let compute ?(eps = 1e-4) (edges : Timed_graph.edge list) =
  let p = pack edges in
  if not (packed_has_cycle p) then Acyclic
  else begin
    let max_lat =
      List.fold_left (fun m (e : Timed_graph.edge) -> m + max 0 e.latency) 1 edges
    in
    let hi0 = float_of_int max_lat +. 1.0 in
    if has_positive_cycle p hi0 then Unbounded
    else begin
      let lo = ref 0.0 and hi = ref hi0 in
      while !hi -. !lo > eps do
        let mid = 0.5 *. (!lo +. !hi) in
        if has_positive_cycle p mid then lo := mid else hi := mid
      done;
      Ratio !hi
    end
  end

let pp ppf = function
  | Ratio r -> Fmt.pf ppf "II=%.2f" r
  | Unbounded -> Fmt.string ppf "II=inf (token-free cycle)"
  | Acyclic -> Fmt.string ppf "acyclic"
