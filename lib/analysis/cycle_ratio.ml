(** Maximum cycle ratio of a timed event graph.

    The initiation interval of a choice-free circuit is the maximum over
    its directed cycles C of latency(C) / tokens(C) (Section 2.1 of the
    paper; this is the analytic counterpart of the MILP throughput model
    of Josipović et al. that Dynamatic solves with Gurobi).  A ratio [lam]
    is feasible iff no cycle has positive weight under edge weights
    [latency - lam * tokens].

    We find a critical cycle by ratio iteration: Bellman–Ford at [lam]
    stops as soon as its parent graph closes a cycle of higher ratio,
    [lam] moves to that cycle's ratio, and the search ends when no cycle
    has positive weight.  The reported ratio is then the parametric
    bisection over [0, hi0], with the critical cycle's weight as the test
    at each midpoint.

    A token-free cycle with positive latency makes the ratio unbounded;
    one SCC pass over the token-free edges finds it.

    The edge list is packed once per call into parallel arrays indexed by
    edge position, with endpoints renumbered densely; every Bellman–Ford
    run then reuses one weight, distance and parent array. *)

type result =
  | Ratio of float  (** the maximum cycle ratio (the achievable II) *)
  | Unbounded       (** a cycle carries latency but no tokens: deadlock *)
  | Acyclic         (** no cycle in scope: II limited by input rate only *)

(* Absolute precision of the bisection. *)
let eps = 1e-4

type packed = {
  nodes : int;            (** distinct endpoints, numbered [0 .. nodes-1] *)
  src : int array;
  dst : int array;
  latency : int array;
  tokens : int array;
  weight : float array;   (** [latency - lam * tokens] for the current [lam] *)
  dist : float array;     (** longest-path estimates, one per node *)
  parent : int array;     (** edge that last raised each node, or -1 *)
  mark : int array;       (** visit marks for the parent-graph walk *)
}

let pack (edges : Timed_graph.edge list) =
  let m = List.length edges in
  let bound =
    List.fold_left
      (fun b (e : Timed_graph.edge) ->
        if e.src < 0 || e.dst < 0 then invalid_arg "Cycle_ratio: negative node id";
        max b (1 + max e.src e.dst))
      0 edges
  in
  (* Endpoints numbered in order of first appearance. *)
  let index = Array.make bound (-1) and nodes = ref 0 in
  let node id =
    let i = index.(id) in
    if i >= 0 then i
    else begin
      let i = !nodes in
      index.(id) <- i;
      incr nodes;
      i
    end
  in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let latency = Array.make m 0 and tokens = Array.make m 0 in
  List.iteri
    (fun i (e : Timed_graph.edge) ->
      src.(i) <- node e.src;
      dst.(i) <- node e.dst;
      latency.(i) <- e.latency;
      tokens.(i) <- e.tokens)
    edges;
  let nodes = !nodes in
  {
    nodes;
    src;
    dst;
    latency;
    tokens;
    weight = Array.make m 0.0;
    dist = Array.make nodes 0.0;
    parent = Array.make nodes (-1);
    mark = Array.make nodes (-1);
  }

(* Successor arrays of the edges [i] with [keep i]: the heads of node
   [u]'s kept edges are [adj.(first.(u)) .. adj.(first.(u+1) - 1)], in
   edge order. *)
let successors p keep =
  let n = p.nodes and m = Array.length p.src in
  let first = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    if keep i then first.(p.src.(i) + 1) <- first.(p.src.(i) + 1) + 1
  done;
  for u = 1 to n do
    first.(u) <- first.(u) + first.(u - 1)
  done;
  let adj = Array.make first.(n) 0 and fill = Array.sub first 0 n in
  for i = 0 to m - 1 do
    if keep i then begin
      let u = p.src.(i) in
      adj.(fill.(u)) <- p.dst.(i);
      fill.(u) <- fill.(u) + 1
    end
  done;
  (first, adj)

(* Does ratio [l / t] exceed [l' / t']?  Token counts are never negative,
   so cross-multiplying is exact, and a token-free cycle with positive
   latency beats every ratio. *)
let beats (l, t) (l', t') = l * t' > l' * t

(* The cycles of the parent graph (each node points to the tail of the
   edge that last raised it; every node has at most one parent, so each
   walk ends at a root or closes one cycle).  Returns the latency and
   token sums of the best cycle that beats [best], if any. *)
let parent_cycle p best =
  let n = p.nodes and parent = p.parent and mark = p.mark in
  Array.fill mark 0 n (-1);
  let found = ref None and best = ref best in
  for s = 0 to n - 1 do
    let u = ref s in
    while !u >= 0 && mark.(!u) < 0 do
      mark.(!u) <- s;
      let e = parent.(!u) in
      u := if e < 0 then -1 else p.src.(e)
    done;
    if !u >= 0 && mark.(!u) = s then begin
      let head = !u in
      let rec sums v l t =
        let e = parent.(v) in
        let l = l + p.latency.(e) and t = t + p.tokens.(e) in
        if p.src.(e) = head then (l, t) else sums p.src.(e) l t
      in
      let c = sums head 0 0 in
      if beats c !best then begin
        best := c;
        found := Some c
      end
    end
  done;
  !found

(* Bellman–Ford on weights [latency - lam * tokens] with [lam = l / t]:
   at most [nodes + 1] rounds relaxing the edges in list order, with a
   1e-9 tolerance against float noise.  After rounds 1, 2, 4, 8, ... and
   when the rounds run out, it walks the parent graph; a cycle there that
   beats [(l, t)] ends the run and is returned.  A relaxation in the last
   round implies a parent cycle, so [None] means no cycle beats [l / t]. *)
let better_cycle p (l, t) =
  let n = p.nodes and m = Array.length p.src in
  let lam = float_of_int l /. float_of_int t in
  let src = p.src and dst = p.dst and weight = p.weight and dist = p.dist in
  let parent = p.parent in
  for i = 0 to m - 1 do
    weight.(i) <- float_of_int p.latency.(i) -. (lam *. float_of_int p.tokens.(i))
  done;
  Array.fill dist 0 n 0.0;
  Array.fill parent 0 n (-1);
  let changed = ref true and round = ref 0 and walk_at = ref 1 in
  let found = ref None in
  while !changed && !round <= n && Option.is_none !found do
    changed := false;
    (* The hot loop.  Unchecked accesses are safe: [i < m] indexes the
       edge arrays and [pack] numbers every endpoint below [n]. *)
    for i = 0 to m - 1 do
      let v = Array.unsafe_get dst i in
      let d =
        Array.unsafe_get dist (Array.unsafe_get src i) +. Array.unsafe_get weight i
      in
      if d > Array.unsafe_get dist v +. 1e-9 then begin
        Array.unsafe_set dist v d;
        Array.unsafe_set parent v i;
        changed := true
      end
    done;
    incr round;
    if !changed && (!round = !walk_at || !round > n) then begin
      walk_at := 2 * !walk_at;
      found := parent_cycle p (l, t)
    end
  done;
  !found

(* Kahn's algorithm: the graph is acyclic iff repeatedly removing nodes
   without incoming edges removes them all. *)
let packed_has_cycle p =
  let n = p.nodes and m = Array.length p.src in
  let indeg = Array.make n 0 in
  for i = 0 to m - 1 do
    indeg.(p.dst.(i)) <- indeg.(p.dst.(i)) + 1
  done;
  let first, succ = successors p (fun _ -> true) in
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

(* Does a token-free cycle carry positive latency?  Only such a cycle
   beats ratio [max_lat + 1]: one with tokens has less latency than
   [max_lat] in all.  With no negative latency on a token-free edge, it
   exists iff a token-free edge of positive latency joins two nodes of
   one SCC of the token-free edges; otherwise a negative latency may
   cancel the positive ones, and Bellman–Ford at that ratio decides. *)
let token_free_cycle p ~max_lat =
  let m = Array.length p.src in
  let free i = p.tokens.(i) = 0 in
  let rec exists f i = i < m && (f i || exists f (i + 1)) in
  if exists (fun i -> free i && p.latency.(i) < 0) 0 then
    Option.is_some (better_cycle p (max_lat + 1, 1))
  else begin
    let first, adj = successors p free in
    let comp = Scc.components ~n:p.nodes ~first ~adj in
    exists
      (fun i -> free i && p.latency.(i) > 0 && comp.(p.src.(i)) = comp.(p.dst.(i)))
      0
  end

let has_cycle edges = packed_has_cycle (pack edges)

(** Maximum cycle ratio of [edges], within absolute precision [eps]. *)
let compute (edges : Timed_graph.edge list) =
  let p = pack edges in
  if not (packed_has_cycle p) then Acyclic
  else begin
    let max_lat = Array.fold_left (fun m l -> m + max 0 l) 1 p.latency in
    let hi0 = float_of_int max_lat +. 1.0 in
    if token_free_cycle p ~max_lat then Unbounded
    else begin
      let rec critical c =
        match better_cycle p c with None -> c | Some c' -> critical c'
      in
      let l, t = critical (0, 1) in
      (* The bisection, with the critical cycle deciding each midpoint:
         some cycle has positive weight at [mid] iff this one does.  At
         these dyadic midpoints the float arithmetic is exact. *)
      let lo = ref 0.0 and hi = ref hi0 in
      while !hi -. !lo > eps do
        let mid = 0.5 *. (!lo +. !hi) in
        if float_of_int l -. (mid *. float_of_int t) > 0.0 then lo := mid else hi := mid
      done;
      Ratio !hi
    end
  end

let pp ppf = function
  | Ratio r -> Fmt.pf ppf "II=%.2f" r
  | Unbounded -> Fmt.string ppf "II=inf (token-free cycle)"
  | Acyclic -> Fmt.string ppf "acyclic"
