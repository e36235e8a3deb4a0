(** Single-flight weighted LRU cache; see the interface. *)

type 'a ready = {
  value : 'a;
  weight : int;
  mutable used : int;  (** tick of the last use, for LRU eviction *)
}

type 'a entry = Pending | Ready of 'a ready

type 'a t = {
  m : Mutex.t;
  tbl : (string, 'a entry) Hashtbl.t;
  max_weight : int;
  weigh : 'a -> int;
  mutable weight : int;  (** sum of Ready entry weights *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable joins : int;
  mutable evictions : int;
}

let create ~max_weight ~weight =
  if max_weight < 1 then invalid_arg "Cache.create: max_weight < 1";
  {
    m = Mutex.create ();
    tbl = Hashtbl.create 64;
    max_weight;
    weigh = weight;
    weight = 0;
    tick = 0;
    hits = 0;
    misses = 0;
    joins = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let use t r =
  t.hits <- t.hits + 1;
  t.tick <- t.tick + 1;
  r.used <- t.tick;
  r.value

type 'a admission = Hit of 'a | Lead | Join

let admit t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some (Ready r) -> Hit (use t r)
      | Some Pending ->
          t.joins <- t.joins + 1;
          Join
      | None ->
          t.misses <- t.misses + 1;
          Hashtbl.replace t.tbl key Pending;
          Lead)

let claim t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some (Ready _ | Pending) -> false
      | None ->
          Hashtbl.replace t.tbl key Pending;
          true)

let lookup t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some (Ready r) -> Some (use t r)
      | Some Pending | None ->
          t.misses <- t.misses + 1;
          None)

(* Evict least recently used Ready entries until the weight fits, never
   [keep] (the key just filled) nor a Pending entry (joiners wait on
   it).  One O(entries) scan per victim: the daemon's caches hold a few
   hundred entries, not millions. *)
let evict_over_weight t ~keep =
  let rec go () =
    if t.weight > t.max_weight then begin
      let victim =
        Hashtbl.fold
          (fun k e best ->
            match (e, best) with
            | Ready r, Some (_, used, _) when r.used >= used -> best
            | Ready r, _ when k <> keep -> Some (k, r.used, r.weight)
            | _ -> best)
          t.tbl None
      in
      match victim with
      | None -> ()
      | Some (k, _, w) ->
          Hashtbl.remove t.tbl k;
          t.weight <- t.weight - w;
          t.evictions <- t.evictions + 1;
          go ()
    end
  in
  go ()

let fulfill t key value =
  let weight = t.weigh value in
  locked t (fun () ->
      (match Hashtbl.find_opt t.tbl key with
      | Some (Ready old) -> t.weight <- t.weight - old.weight
      | Some Pending | None -> ());
      t.tick <- t.tick + 1;
      Hashtbl.replace t.tbl key (Ready { value; weight; used = t.tick });
      t.weight <- t.weight + weight;
      evict_over_weight t ~keep:key)

let abandon t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some Pending -> Hashtbl.remove t.tbl key
      | Some (Ready _) | None -> ())

let peek t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some (Ready r) -> `Ready r.value
      | Some Pending -> `Pending
      | None -> `Absent)

type counters = {
  hits : int;
  misses : int;
  joins : int;
  evictions : int;
  entries : int;
  weight : int;
}

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        joins = t.joins;
        evictions = t.evictions;
        entries = Hashtbl.length t.tbl;
        weight = t.weight;
      })
