(** Mutable dataflow-circuit graph.

    Units are nodes, channels are edges.  Every output port connects to at
    most one channel and every input port to at most one channel — fan-out
    is expressed with explicit {!Types.Fork} units, as in real elastic
    circuits.  The graph supports the rewriting operations needed by the
    sharing transformations (unit insertion/removal, channel splicing). *)

open Types

type endpoint = { unit_id : int; port : int }

type channel = {
  id : int;
  mutable src : endpoint;
  mutable dst : endpoint;
}

type unit_node = {
  uid : int;
  mutable kind : kind;
  mutable label : string;
  mutable bb : int;    (** basic-block id; -1 when the HLS strategy has no BBs *)
  mutable loop : int;  (** innermost enclosing loop id; -1 outside loops *)
  mutable loop_header : bool;
      (** loop-header mux: its cyclic data input (port 1) is a backedge
          carrying one circulating token in steady state *)
  mutable pinned : bool;
      (** exempt from buffer-rightsizing (purpose-sized FIFOs) *)
  mutable dead : bool;
}

type t = {
  mutable units : unit_node option array;
  mutable n_units : int;
  mutable channels : channel option array;
  mutable n_channels : int;
  (* out_of.(u) : channel id per output port, -1 when unconnected *)
  mutable out_of : int array array;
  mutable in_of : int array array;
  mutable memories : (string * int) list;  (** array name, element count *)
}

let create () =
  {
    units = Array.make 64 None;
    n_units = 0;
    channels = Array.make 64 None;
    n_channels = 0;
    out_of = Array.make 64 [||];
    in_of = Array.make 64 [||];
    memories = [];
  }

let grow arr n default =
  if n < Array.length arr then arr
  else begin
    let bigger = Array.make (max (2 * Array.length arr) (n + 1)) default in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

let add_unit ?(label = "") ?(bb = -1) ?(loop = -1) g kind =
  let uid = g.n_units in
  g.units <- grow g.units uid None;
  g.out_of <- grow g.out_of uid [||];
  g.in_of <- grow g.in_of uid [||];
  let n_in, n_out = arity kind in
  let label = if label = "" then kind_name kind ^ "_" ^ string_of_int uid else label in
  g.units.(uid) <- Some { uid; kind; label; bb; loop; loop_header = false; pinned = false; dead = false };
  g.out_of.(uid) <- Array.make n_out (-1);
  g.in_of.(uid) <- Array.make n_in (-1);
  g.n_units <- uid + 1;
  uid

let unit_exn g uid =
  match g.units.(uid) with
  | Some u when not u.dead -> u
  | _ -> invalid_arg (Fmt.str "Graph.unit_exn: unit %d is absent" uid)

let kind_of g uid = (unit_exn g uid).kind
let label_of g uid = (unit_exn g uid).label
let bb_of g uid = (unit_exn g uid).bb
let loop_of g uid = (unit_exn g uid).loop
let set_loop g uid l = (unit_exn g uid).loop <- l
let set_bb g uid b = (unit_exn g uid).bb <- b
let set_label g uid s = (unit_exn g uid).label <- s
let mark_loop_header g uid = (unit_exn g uid).loop_header <- true
let is_loop_header g uid = (unit_exn g uid).loop_header
let pin g uid = (unit_exn g uid).pinned <- true
let is_pinned g uid = (unit_exn g uid).pinned

let is_live g uid =
  uid >= 0 && uid < g.n_units
  && match g.units.(uid) with Some u -> not u.dead | None -> false

(** Connect output port [(a, ap)] to input port [(b, bp)].  Both ports must
    currently be unconnected. *)
let connect g (a, ap) (b, bp) =
  let ua = unit_exn g a and ub = unit_exn g b in
  let _, n_out = arity ua.kind and n_in, _ = arity ub.kind in
  if ap < 0 || ap >= n_out then
    invalid_arg (Fmt.str "connect: %s has no output port %d" ua.label ap);
  if bp < 0 || bp >= n_in then
    invalid_arg (Fmt.str "connect: %s has no input port %d" ub.label bp);
  if g.out_of.(a).(ap) >= 0 then
    invalid_arg (Fmt.str "connect: output %s.%d already connected" ua.label ap);
  if g.in_of.(b).(bp) >= 0 then
    invalid_arg (Fmt.str "connect: input %s.%d already connected" ub.label bp);
  let cid = g.n_channels in
  g.channels <- grow g.channels cid None;
  g.channels.(cid) <-
    Some { id = cid; src = { unit_id = a; port = ap }; dst = { unit_id = b; port = bp } };
  g.out_of.(a).(ap) <- cid;
  g.in_of.(b).(bp) <- cid;
  g.n_channels <- cid + 1;
  cid

let channel_exn g cid =
  match g.channels.(cid) with
  | Some c -> c
  | None -> invalid_arg (Fmt.str "Graph.channel_exn: channel %d deleted" cid)

let disconnect g cid =
  let c = channel_exn g cid in
  g.out_of.(c.src.unit_id).(c.src.port) <- -1;
  g.in_of.(c.dst.unit_id).(c.dst.port) <- -1;
  g.channels.(cid) <- None

(** Channel leaving output port [port] of [uid], if any. *)
let out_channel g uid port =
  let cid = g.out_of.(uid).(port) in
  if cid < 0 then None else Some (channel_exn g cid)

let in_channel g uid port =
  let cid = g.in_of.(uid).(port) in
  if cid < 0 then None else Some (channel_exn g cid)

let out_channel_exn g uid port =
  match out_channel g uid port with
  | Some c -> c
  | None ->
      invalid_arg
        (Fmt.str "out_channel_exn: %s.%d unconnected" (label_of g uid) port)

let in_channel_exn g uid port =
  match in_channel g uid port with
  | Some c -> c
  | None ->
      invalid_arg
        (Fmt.str "in_channel_exn: %s.%d unconnected" (label_of g uid) port)

(** Remove a unit; all its channels must have been disconnected first. *)
let remove_unit g uid =
  let u = unit_exn g uid in
  Array.iter (fun cid -> if cid >= 0 then
      invalid_arg (Fmt.str "remove_unit: %s still has connected output" u.label))
    g.out_of.(uid);
  Array.iter (fun cid -> if cid >= 0 then
      invalid_arg (Fmt.str "remove_unit: %s still has connected input" u.label))
    g.in_of.(uid);
  u.dead <- true

(** Redirect the destination of channel [cid] to input port [(b, bp)]. *)
let retarget_dst g cid (b, bp) =
  let c = channel_exn g cid in
  let ub = unit_exn g b in
  let n_in, _ = arity ub.kind in
  if bp < 0 || bp >= n_in then
    invalid_arg (Fmt.str "retarget_dst: %s has no input port %d" ub.label bp);
  if g.in_of.(b).(bp) >= 0 then
    invalid_arg (Fmt.str "retarget_dst: input %s.%d busy" ub.label bp);
  g.in_of.(c.dst.unit_id).(c.dst.port) <- -1;
  c.dst <- { unit_id = b; port = bp };
  g.in_of.(b).(bp) <- cid

(** Redirect the source of channel [cid] to output port [(a, ap)]. *)
let retarget_src g cid (a, ap) =
  let c = channel_exn g cid in
  let ua = unit_exn g a in
  let _, n_out = arity ua.kind in
  if ap < 0 || ap >= n_out then
    invalid_arg (Fmt.str "retarget_src: %s has no output port %d" ua.label ap);
  if g.out_of.(a).(ap) >= 0 then
    invalid_arg (Fmt.str "retarget_src: output %s.%d busy" ua.label ap);
  g.out_of.(c.src.unit_id).(c.src.port) <- -1;
  c.src <- { unit_id = a; port = ap };
  g.out_of.(a).(ap) <- cid

(** Insert a 1-in/1-out unit [kind] on channel [cid]; returns the new
    unit's id.  The original channel keeps its source and now ends at the
    new unit; a fresh channel links the new unit to the old destination. *)
let insert_on_channel ?label g cid kind =
  let n_in, n_out = arity kind in
  if n_in <> 1 || n_out <> 1 then
    invalid_arg "insert_on_channel: unit must be 1-in/1-out";
  let c = channel_exn g cid in
  let old_dst = c.dst in
  let u =
    add_unit ?label g kind
      ~bb:(bb_of g c.src.unit_id) ~loop:(loop_of g c.src.unit_id)
  in
  g.in_of.(old_dst.unit_id).(old_dst.port) <- -1;
  c.dst <- { unit_id = u; port = 0 };
  g.in_of.(u).(0) <- cid;
  let _ = connect g (u, 0) (old_dst.unit_id, old_dst.port) in
  u

let iter_units g f =
  for uid = 0 to g.n_units - 1 do
    match g.units.(uid) with
    | Some u when not u.dead -> f u
    | _ -> ()
  done

let iter_channels g f =
  for cid = 0 to g.n_channels - 1 do
    match g.channels.(cid) with Some c -> f c | None -> ()
  done

let fold_units g f acc =
  let acc = ref acc in
  iter_units g (fun u -> acc := f !acc u);
  !acc

let units g = List.rev (fold_units g (fun acc u -> u :: acc) [])

let channels g =
  let acc = ref [] in
  iter_channels g (fun c -> acc := c :: !acc);
  List.rev !acc

let live_unit_count g = fold_units g (fun n _ -> n + 1) 0

let find_units g pred =
  List.filter (fun u -> pred u) (units g)

(** Successor unit ids reachable through one channel. *)
let successors g uid =
  let acc = ref [] in
  Array.iter
    (fun cid -> if cid >= 0 then acc := (channel_exn g cid).dst.unit_id :: !acc)
    g.out_of.(uid);
  List.rev !acc

let predecessors g uid =
  let acc = ref [] in
  Array.iter
    (fun cid -> if cid >= 0 then acc := (channel_exn g cid).src.unit_id :: !acc)
    g.in_of.(uid);
  List.rev !acc

(** Deep copy, for tentative rewrites (the In-order optimizer evaluates
    each candidate merge on a clone before committing). *)
let copy g =
  {
    units =
      Array.map
        (Option.map (fun u ->
             { u with uid = u.uid } (* fresh record; all fields copied *)))
        g.units;
    n_units = g.n_units;
    channels =
      Array.map
        (Option.map (fun c -> { c with src = c.src; dst = c.dst }))
        g.channels;
    n_channels = g.n_channels;
    out_of = Array.map Array.copy g.out_of;
    in_of = Array.map Array.copy g.in_of;
    memories = g.memories;
  }

let declare_memory g name size =
  if not (List.mem_assoc name g.memories) then
    g.memories <- (name, size) :: g.memories

let memories g = List.rev g.memories
