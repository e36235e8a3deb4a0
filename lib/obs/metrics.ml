module G = Dataflow.Graph
module T = Dataflow.Types
module E = Sim.Engine
module J = Exec.Jsonl

type unit_row = {
  uid : int;
  ulabel : string;
  ukind : string;
  fires : int;
  utilization : float;
}

type chan_row = {
  cid : int;
  src : string;
  dst : string;
  transfers : int;
  stalls : int;
  by_reason : (string * int) list;
}

type credit_row = {
  kuid : int;
  klabel : string;
  grants : int;
  returns : int;
  exhausted : int;
}

type arb_row = { auid : int; alabel : string; grant_hist : int list }

type buffer_row = {
  buid : int;
  blabel : string;
  slots : int;
  avg_occ : float;
  p50_occ : int;
  p95_occ : int;
  max_occ : int;
}

type loop_row = {
  loop_id : int;
  header : string;
  iterations : int;
  measured_ii : float;
  assumed_ii : float option;
}

type report = {
  kernel : string;
  total_cycles : int;
  units : unit_row list;
  channels : chan_row list;
  credits : credit_row list;
  arbiters : arb_row list;
  buffers : buffer_row list;
  loops : loop_row list;
}

let n_reasons = 5

let reason_index : E.stall_reason -> int = function
  | Backpressure -> 0
  | Pipeline_full -> 1
  | Contention -> 2
  | No_credit -> 3
  | Operand_starved -> 4

let reason_of_index = function
  | 0 -> E.Backpressure
  | 1 -> E.Pipeline_full
  | 2 -> E.Contention
  | 3 -> E.No_credit
  | _ -> E.Operand_starved

type buf_state = {
  slots : int;
  mutable occ : int;
  mutable last_change : int;
  mutable max_seen : int;
  weights : int array; (* cycles spent at each occupancy level *)
}

type t = {
  g : G.t;
  n_units : int;
  n_channels : int;
  (* per unit: cycles the sequential state advanced (E_fire) ... *)
  active : int array;
  (* ... and output-port-0 transfers: one per token a unit emits,
     which is what iteration counts and measured II count *)
  fires : int array;
  first_fire : int array;
  last_fire : int array;
  (* per channel *)
  transfers : int array;
  stall_by : int array; (* cid * n_reasons + reason *)
  (* credit counters, keyed by uid *)
  c_grants : int array;
  c_returns : int array;
  c_zero_since : int array; (* -1 when counter holds credits *)
  c_exhausted : int array;
  (* arbiters, keyed by uid *)
  arb_hist : int array array;
  (* buffers, keyed by uid *)
  bufs : buf_state option array;
  (* channel endpoints, cid -> uid *)
  src_of : int array;
  src_port_of : int array;
  dst_of : int array;
}

let create g =
  let n_units = G.fold_units g (fun a (u : G.unit_node) -> max a (u.uid + 1)) 0 in
  let n_channels =
    let n = ref 0 in
    G.iter_channels g (fun (c : G.channel) -> n := max !n (c.id + 1));
    !n
  in
  let arb_hist = Array.make n_units [||] in
  let bufs = Array.make n_units None in
  let c_zero_since = Array.make n_units (-1) in
  G.iter_units g (fun (u : G.unit_node) ->
      match u.kind with
      | T.Arbiter { inputs; _ } -> arb_hist.(u.uid) <- Array.make inputs 0
      | T.Buffer { slots; init; _ } ->
          let occ = List.length init in
          bufs.(u.uid) <-
            Some
              {
                slots;
                occ;
                last_change = 0;
                max_seen = occ;
                weights = Array.make (slots + 1) 0;
              }
      | T.Credit_counter { init } ->
          if init = 0 then c_zero_since.(u.uid) <- 0
      | _ -> ());
  let src_of = Array.make n_channels (-1) in
  let src_port_of = Array.make n_channels (-1) in
  let dst_of = Array.make n_channels (-1) in
  G.iter_channels g (fun (c : G.channel) ->
      src_of.(c.id) <- c.src.unit_id;
      src_port_of.(c.id) <- c.src.port;
      dst_of.(c.id) <- c.dst.unit_id);
  {
    g;
    n_units;
    n_channels;
    active = Array.make n_units 0;
    fires = Array.make n_units 0;
    first_fire = Array.make n_units (-1);
    last_fire = Array.make n_units (-1);
    transfers = Array.make n_channels 0;
    stall_by = Array.make (n_channels * n_reasons) 0;
    c_grants = Array.make n_units 0;
    c_returns = Array.make n_units 0;
    c_zero_since;
    c_exhausted = Array.make n_units 0;
    arb_hist;
    bufs;
    src_of;
    src_port_of;
    dst_of;
  }

let buf_bump b ~cycle ~delta =
  let span = cycle - b.last_change in
  if span > 0 then begin
    b.weights.(min b.occ b.slots) <-
      b.weights.(min b.occ b.slots) + span;
    b.last_change <- cycle
  end;
  b.occ <- max 0 (min b.slots (b.occ + delta));
  if b.occ > b.max_seen then b.max_seen <- b.occ

let sink t (ev : E.event) =
  match ev with
  | E_fire { cycle = _; uid } -> t.active.(uid) <- t.active.(uid) + 1
  | E_transfer { cid; cycle; _ } ->
      t.transfers.(cid) <- t.transfers.(cid) + 1;
      (if t.src_port_of.(cid) = 0 then begin
         let u = t.src_of.(cid) in
         t.fires.(u) <- t.fires.(u) + 1;
         if t.first_fire.(u) < 0 then t.first_fire.(u) <- cycle;
         t.last_fire.(u) <- cycle
       end);
      (match t.bufs.(t.dst_of.(cid)) with
      | Some b -> buf_bump b ~cycle ~delta:1
      | None -> ());
      (match t.bufs.(t.src_of.(cid)) with
      | Some b -> buf_bump b ~cycle ~delta:(-1)
      | None -> ())
  | E_stall { cid; reason; _ } ->
      let k = (cid * n_reasons) + reason_index reason in
      t.stall_by.(k) <- t.stall_by.(k) + 1
  | E_credit { cycle; uid; delta; count } ->
      if delta < 0 then t.c_grants.(uid) <- t.c_grants.(uid) + 1
      else t.c_returns.(uid) <- t.c_returns.(uid) + 1;
      let post = count + delta in
      if post = 0 then begin
        if t.c_zero_since.(uid) < 0 then t.c_zero_since.(uid) <- cycle
      end
      else if t.c_zero_since.(uid) >= 0 then begin
        t.c_exhausted.(uid) <-
          t.c_exhausted.(uid) + (cycle - t.c_zero_since.(uid));
        t.c_zero_since.(uid) <- -1
      end
  | E_grant { uid; port; _ } ->
      let h = t.arb_hist.(uid) in
      if port >= 0 && port < Array.length h then h.(port) <- h.(port) + 1

let endpoint_name g (e : G.endpoint) =
  Fmt.str "%s.%d" (G.label_of g e.unit_id) e.port

let percentile weights total q =
  (* smallest level with cumulative weight >= q * total *)
  if total <= 0 then 0
  else begin
    let target = Float.of_int total *. q in
    let cum = ref 0 in
    let ans = ref (Array.length weights - 1) in
    (try
       Array.iteri
         (fun lvl w ->
           cum := !cum + w;
           if Float.of_int !cum >= target then begin
             ans := lvl;
             raise Exit
           end)
         weights
     with Exit -> ());
    !ans
  end

let measured_ii ~first ~last ~fires =
  if fires < 2 then 0.0
  else Float.of_int (last - first) /. Float.of_int (fires - 1)

let finish t ~kernel ~total_cycles =
  let units =
    G.fold_units t.g
      (fun acc (u : G.unit_node) ->
        let fires = t.fires.(u.uid) in
        let kind =
          match u.kind with
          | T.Operator { op; _ } -> "operator:" ^ T.string_of_opcode op
          | k -> T.kind_name k
        in
        {
          uid = u.uid;
          ulabel = u.label;
          ukind = kind;
          fires;
          utilization =
            (if total_cycles > 0 then
               Float.of_int t.active.(u.uid) /. Float.of_int total_cycles
             else 0.0);
        }
        :: acc)
      []
    |> List.rev
  in
  let channels =
    List.fold_left
      (fun acc (c : G.channel) ->
        let by_reason =
          List.filter_map
            (fun r ->
              let n = t.stall_by.((c.id * n_reasons) + r) in
              if n = 0 then None
              else Some (E.string_of_stall_reason (reason_of_index r), n))
            [ 0; 1; 2; 3; 4 ]
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        {
          cid = c.id;
          src = endpoint_name t.g c.src;
          dst = endpoint_name t.g c.dst;
          transfers = t.transfers.(c.id);
          stalls = List.fold_left (fun a (_, n) -> a + n) 0 by_reason;
          by_reason;
        }
        :: acc)
      [] (G.channels t.g)
    |> List.rev
  in
  let credits =
    G.fold_units t.g
      (fun acc (u : G.unit_node) ->
        match u.kind with
        | T.Credit_counter _ ->
            let tail =
              if t.c_zero_since.(u.uid) >= 0 then
                total_cycles - t.c_zero_since.(u.uid)
              else 0
            in
            {
              kuid = u.uid;
              klabel = u.label;
              grants = t.c_grants.(u.uid);
              returns = t.c_returns.(u.uid);
              exhausted = t.c_exhausted.(u.uid) + tail;
            }
            :: acc
        | _ -> acc)
      []
    |> List.rev
  in
  let arbiters =
    G.fold_units t.g
      (fun acc (u : G.unit_node) ->
        match u.kind with
        | T.Arbiter _ ->
            {
              auid = u.uid;
              alabel = u.label;
              grant_hist = Array.to_list t.arb_hist.(u.uid);
            }
            :: acc
        | _ -> acc)
      []
    |> List.rev
  in
  let buffers =
    G.fold_units t.g
      (fun acc (u : G.unit_node) ->
        match t.bufs.(u.uid) with
        | Some b ->
            (* account the trailing steady interval *)
            let weights = Array.copy b.weights in
            let tail = total_cycles - b.last_change in
            if tail > 0 then
              weights.(min b.occ b.slots) <- weights.(min b.occ b.slots) + tail;
            let total = Array.fold_left ( + ) 0 weights in
            let wsum = ref 0 in
            Array.iteri (fun lvl w -> wsum := !wsum + (lvl * w)) weights;
            {
              buid = u.uid;
              blabel = u.label;
              slots = b.slots;
              avg_occ =
                (if total > 0 then Float.of_int !wsum /. Float.of_int total
                 else 0.0);
              p50_occ = percentile weights total 0.5;
              p95_occ = percentile weights total 0.95;
              max_occ = b.max_seen;
            }
            :: acc
        | None -> acc)
      []
    |> List.rev
  in
  let unit_ii (u : G.unit_node) =
    measured_ii ~first:t.first_fire.(u.uid) ~last:t.last_fire.(u.uid)
      ~fires:t.fires.(u.uid)
  in
  let loops =
    List.filter_map
      (fun (cfc : Analysis.Cfc.t) ->
        let loop_id = cfc.loop_id in
        (* the loop's header muxes each fire once per iteration; the
           slowest one (largest mean interval, the last in unit order on
           a tie) is the loop's II.  Untagged loops fall back to their
           most fired unit so they still get a row. *)
        let header =
          G.fold_units t.g
            (fun acc (u : G.unit_node) ->
              if u.loop <> loop_id || not u.loop_header then acc
              else
                match acc with
                | Some (best : G.unit_node) when unit_ii best > unit_ii u -> acc
                | _ -> Some u)
            None
        in
        let header =
          match header with
          | Some _ -> header
          | None ->
              G.fold_units t.g
                (fun acc (u : G.unit_node) ->
                  if u.loop <> loop_id then acc
                  else
                    match acc with
                    | Some (best : G.unit_node)
                      when t.fires.(best.uid) >= t.fires.(u.uid) ->
                        acc
                    | _ -> Some u)
                None
        in
        match header with
        | None -> None
        | Some u ->
            Some
              {
                loop_id;
                header = u.label;
                iterations = t.fires.(u.uid);
                measured_ii = unit_ii u;
                assumed_ii = Analysis.Cfc.ii_value cfc;
              })
      (Analysis.Cfc.all t.g)
  in
  { kernel; total_cycles; units; channels; credits; arbiters; buffers; loops }

(* --- JSON codec ------------------------------------------------------- *)

let report_to_json r =
  let unit_row (u : unit_row) =
    J.Obj
      [
        ("uid", J.Int u.uid);
        ("label", J.String u.ulabel);
        ("kind", J.String u.ukind);
        ("fires", J.Int u.fires);
        ("util", J.Float u.utilization);
      ]
  in
  let chan_row (c : chan_row) =
    J.Obj
      [
        ("cid", J.Int c.cid);
        ("src", J.String c.src);
        ("dst", J.String c.dst);
        ("transfers", J.Int c.transfers);
        ("stalls", J.Int c.stalls);
        ("by_reason", J.Obj (List.map (fun (k, n) -> (k, J.Int n)) c.by_reason));
      ]
  in
  let credit_row (c : credit_row) =
    J.Obj
      [
        ("uid", J.Int c.kuid);
        ("label", J.String c.klabel);
        ("grants", J.Int c.grants);
        ("returns", J.Int c.returns);
        ("exhausted", J.Int c.exhausted);
      ]
  in
  let arb_row (a : arb_row) =
    J.Obj
      [
        ("uid", J.Int a.auid);
        ("label", J.String a.alabel);
        ("hist", J.List (List.map (fun n -> J.Int n) a.grant_hist));
      ]
  in
  let buffer_row (b : buffer_row) =
    J.Obj
      [
        ("uid", J.Int b.buid);
        ("label", J.String b.blabel);
        ("slots", J.Int b.slots);
        ("avg", J.Float b.avg_occ);
        ("p50", J.Int b.p50_occ);
        ("p95", J.Int b.p95_occ);
        ("max", J.Int b.max_occ);
      ]
  in
  let loop_row (l : loop_row) =
    J.Obj
      [
        ("loop", J.Int l.loop_id);
        ("header", J.String l.header);
        ("iterations", J.Int l.iterations);
        ("measured_ii", J.Float l.measured_ii);
        ( "assumed_ii",
          match l.assumed_ii with None -> J.Null | Some f -> J.Float f );
      ]
  in
  J.Obj
    [
      ("kernel", J.String r.kernel);
      ("total_cycles", J.Int r.total_cycles);
      ("units", J.List (List.map unit_row r.units));
      ("channels", J.List (List.map chan_row r.channels));
      ("credits", J.List (List.map credit_row r.credits));
      ("arbiters", J.List (List.map arb_row r.arbiters));
      ("buffers", J.List (List.map buffer_row r.buffers));
      ("loops", J.List (List.map loop_row r.loops));
    ]

let ( let* ) = Result.bind

let need what = function Some v -> Ok v | None -> Error ("bad " ^ what)
let fint what j v = need what (Option.bind (J.member v j) J.to_int)
let ffloat what j v = need what (Option.bind (J.member v j) J.to_float)
let fstr what j v = need what (Option.bind (J.member v j) J.to_str)

let flist what f j v =
  let* items = need what (Option.bind (J.member v j) J.to_list) in
  List.fold_left
    (fun acc item ->
      let* acc = acc in
      let* x = f item in
      Ok (x :: acc))
    (Ok []) items
  |> Result.map List.rev

let report_of_json j =
  let unit_row v =
    let* uid = fint "unit.uid" v "uid" in
    let* ulabel = fstr "unit.label" v "label" in
    let* ukind = fstr "unit.kind" v "kind" in
    let* fires = fint "unit.fires" v "fires" in
    let* utilization = ffloat "unit.util" v "util" in
    Ok { uid; ulabel; ukind; fires; utilization }
  in
  let chan_row v =
    let* cid = fint "chan.cid" v "cid" in
    let* src = fstr "chan.src" v "src" in
    let* dst = fstr "chan.dst" v "dst" in
    let* transfers = fint "chan.transfers" v "transfers" in
    let* stalls = fint "chan.stalls" v "stalls" in
    let* by_reason =
      match J.member "by_reason" v with
      | Some (J.Obj kvs) ->
          List.fold_left
            (fun acc (k, n) ->
              let* acc = acc in
              let* n = need "chan.by_reason" (J.to_int n) in
              Ok ((k, n) :: acc))
            (Ok []) kvs
          |> Result.map List.rev
      | _ -> Error "bad chan.by_reason"
    in
    Ok { cid; src; dst; transfers; stalls; by_reason }
  in
  let credit_row v =
    let* kuid = fint "credit.uid" v "uid" in
    let* klabel = fstr "credit.label" v "label" in
    let* grants = fint "credit.grants" v "grants" in
    let* returns = fint "credit.returns" v "returns" in
    let* exhausted = fint "credit.exhausted" v "exhausted" in
    Ok { kuid; klabel; grants; returns; exhausted }
  in
  let arb_row v =
    let* auid = fint "arb.uid" v "uid" in
    let* alabel = fstr "arb.label" v "label" in
    let* grant_hist = flist "arb.hist" (fun n -> need "arb.hist" (J.to_int n)) v "hist" in
    Ok { auid; alabel; grant_hist }
  in
  let buffer_row v =
    let* buid = fint "buf.uid" v "uid" in
    let* blabel = fstr "buf.label" v "label" in
    let* slots = fint "buf.slots" v "slots" in
    let* avg_occ = ffloat "buf.avg" v "avg" in
    let* p50_occ = fint "buf.p50" v "p50" in
    let* p95_occ = fint "buf.p95" v "p95" in
    let* max_occ = fint "buf.max" v "max" in
    Ok { buid; blabel; slots; avg_occ; p50_occ; p95_occ; max_occ }
  in
  let loop_row v =
    let* loop_id = fint "loop.loop" v "loop" in
    let* header = fstr "loop.header" v "header" in
    let* iterations = fint "loop.iterations" v "iterations" in
    let* measured_ii = ffloat "loop.measured_ii" v "measured_ii" in
    let* assumed_ii =
      match J.member "assumed_ii" v with
      | Some J.Null -> Ok None
      | Some f -> (
          match J.to_float f with
          | Some f -> Ok (Some f)
          | None -> Error "bad loop.assumed_ii")
      | None -> Error "bad loop.assumed_ii"
    in
    Ok { loop_id; header; iterations; measured_ii; assumed_ii }
  in
  let* kernel = fstr "kernel" j "kernel" in
  let* total_cycles = fint "total_cycles" j "total_cycles" in
  let* units = flist "units" unit_row j "units" in
  let* channels = flist "channels" chan_row j "channels" in
  let* credits = flist "credits" credit_row j "credits" in
  let* arbiters = flist "arbiters" arb_row j "arbiters" in
  let* buffers = flist "buffers" buffer_row j "buffers" in
  let* loops = flist "loops" loop_row j "loops" in
  Ok { kernel; total_cycles; units; channels; credits; arbiters; buffers; loops }

let top_stalled r n =
  List.filter (fun c -> c.stalls > 0) r.channels
  |> List.stable_sort (fun a b -> compare b.stalls a.stalls)
  |> List.filteri (fun i _ -> i < n)

let most_contended r =
  let active a = List.length (List.filter (fun n -> n > 0) a.grant_hist) in
  let total a = List.fold_left ( + ) 0 a.grant_hist in
  List.filter (fun a -> active a >= 2) r.arbiters
  |> List.fold_left
       (fun best a ->
         match best with
         | Some b when total b >= total a -> best
         | _ -> Some a)
       None
