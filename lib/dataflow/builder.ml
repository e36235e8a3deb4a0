(** Structured construction of dataflow circuits.

    The builder exposes [wire]s — output ports annotated with the
    accumulated pipeline latency since a reference point — and defers all
    connections: a wire may be attached to any number of input ports, and
    {!finalize} materializes the fan-out with fork units (one token copy
    per successor, as in real elastic circuits) and sinks unconsumed
    outputs.  Latency bookkeeping lets the builder perform structural
    slack matching: on reconvergent paths the short side receives a
    transparent FIFO sized to the latency difference, so circuits reach
    the II dictated by their loop-carried dependencies and sharing later
    needs no extra buffering (Section 5.4 of the paper). *)

open Types

type wire = { uid : int; port : int; lat : int }

type t = {
  g : Graph.t;
  (* (unit, out port) -> consumers, in attachment order *)
  pending : (int * int, (int * int) list ref) Hashtbl.t;
  mutable finalized : bool;
  mutable slack_bonus : int;
}

let create () =
  {
    g = Graph.create ();
    pending = Hashtbl.create 97;
    finalized = false;
    slack_bonus = 0;
  }

(** Extra FIFO slots granted by every balancing buffer; the fast-token
    HLS strategy uses a deeper slack budget than the BB-ordered one. *)
let set_slack_bonus b n = b.slack_bonus <- max 0 n

let graph b = b.g

let wire ?(lat = 0) uid port = { uid; port; lat }
let out_wire ?(lat = 0) uid = { uid; port = 0; lat }

(** Maximum slack FIFO capacity inserted by structural balancing. *)
let max_slack = 64

(** Record that [w] feeds input port [(dst, dport)]. *)
let attach b w (dst, dport) =
  if b.finalized then invalid_arg "Builder: already finalized";
  let key = (w.uid, w.port) in
  let l =
    match Hashtbl.find_opt b.pending key with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace b.pending key l;
        l
  in
  l := (dst, dport) :: !l

let add_unit ?label ?bb ?loop b kind = Graph.add_unit ?label ?bb ?loop b.g kind

let entry ?label b v = out_wire (add_unit ?label b (Entry v))

let sink b w =
  let s = add_unit b Sink in
  attach b w (s, 0)

let exit_ b w =
  let e = add_unit b Exit ~label:"exit" in
  attach b w (e, 0);
  e

(** Transparent FIFO of [slots] capacity on a wire (identity when
    [slots <= 0]).  [pin] exempts the FIFO from later rightsizing (for
    purpose-sized FIFOs such as diamond selects). *)
let slack ?bb ?loop ?(pin = false) ?(narrow = false) b w slots =
  if slots <= 0 then w
  else begin
    let slots = min slots max_slack in
    let u =
      add_unit ?bb ?loop b (Buffer { slots; transparent = true; init = []; narrow })
    in
    if pin then Graph.pin b.g u;
    attach b w (u, 0);
    { uid = u; port = 0; lat = w.lat }
  end

(** Opaque (registered) buffer: adds one cycle of latency and cuts the
    combinational path.  Two slots by default so that a simultaneous
    push/pop sustains II = 1. *)
let reg ?bb ?loop ?(slots = 2) ?(init = []) ?(narrow = false) b w =
  let u =
    add_unit ?bb ?loop b (Buffer { slots; transparent = false; init; narrow })
  in
  attach b w (u, 0);
  { uid = u; port = 0; lat = w.lat + 1 }

(** Buffer [w] up to latency [target]: slack sized to the difference plus
    one slot of margin (a full FIFO cannot push and pop the same cycle). *)
let pad ?bb ?loop b w target =
  if target <= w.lat then w
  else
    { (slack ?bb ?loop b w (target - w.lat + 1 + b.slack_bonus)) with lat = target }

(** Equalize latencies of a list of wires by buffering the early ones. *)
let balance ?bb ?loop b ws =
  let target = List.fold_left (fun m w -> max m w.lat) 0 ws in
  List.map (fun w -> pad ?bb ?loop b w target) ws

let const ?bb ?loop ?label b ~ctrl v =
  let c = add_unit ?bb ?loop ?label b (Const v) in
  attach b ctrl (c, 0);
  { uid = c; port = 0; lat = ctrl.lat }

(** Pipelined or combinational operator applied to balanced operands
    ([balanced:false] skips the slack matching — used to reconstruct the
    paper's unbuffered examples). *)
let operator ?bb ?loop ?label ?(balanced = true) b op ~latency ws =
  let ws = if balanced then balance ?bb ?loop b ws else ws in
  let ports = List.length ws in
  let u = add_unit ?bb ?loop ?label b (Operator { op; latency; ports }) in
  List.iteri (fun i w -> attach b w (u, i)) ws;
  let lat = (List.hd ws).lat + latency in
  { uid = u; port = 0; lat }

let join ?bb ?loop ?label ?keep b ws =
  let inputs = List.length ws in
  let keep = match keep with Some k -> k | None -> Array.make inputs true in
  let u = add_unit ?bb ?loop ?label b (Join { inputs; keep }) in
  List.iteri (fun i w -> attach b w (u, i)) ws;
  let lat = List.fold_left (fun m w -> max m w.lat) 0 ws in
  { uid = u; port = 0; lat }

(** [mux b ~sel [a; b]] selects [a] when the select token is [true]. *)
let mux ?bb ?loop ?label b ~sel data =
  let inputs = List.length data in
  let u = add_unit ?bb ?loop ?label b (Mux { inputs }) in
  attach b sel (u, 0);
  List.iteri (fun i w -> attach b w (u, 1 + i)) data;
  let lat = List.fold_left (fun m w -> max m w.lat) sel.lat data in
  { uid = u; port = 0; lat }

(** [branch b ~cond w] sends [w]'s token to the first result when the
    condition is [true], to the second otherwise.  [cond_slack] inserts a
    FIFO on the condition input so that a branch whose data arrives late
    (e.g. on a long-latency ring) does not hold the condition fork and
    stall the other consumers of the same condition. *)
let branch ?bb ?loop ?label ?(cond_slack = 0) b ~cond w =
  let u = add_unit ?bb ?loop ?label b (Branch { outputs = 2 }) in
  let lat = max w.lat cond.lat in
  let w = pad ?bb ?loop b w lat in
  let cond = slack ?bb ?loop ~narrow:true b cond cond_slack in
  let cond = pad ?bb ?loop b cond lat in
  attach b w (u, 0);
  attach b cond (u, 1);
  ({ uid = u; port = 0; lat }, { uid = u; port = 1; lat })

let merge ?bb ?loop ?label b ws =
  let inputs = List.length ws in
  let u = add_unit ?bb ?loop ?label b (Merge { inputs }) in
  List.iteri (fun i w -> attach b w (u, i)) ws;
  let lat = List.fold_left (fun m w -> max m w.lat) 0 ws in
  { uid = u; port = 0; lat }

let load ?bb ?loop ?label b ~memory ~latency addr =
  let latency = max 1 latency in
  let u = add_unit ?bb ?loop ?label b (Load { memory; latency }) in
  attach b addr (u, 0);
  { uid = u; port = 0; lat = addr.lat + latency }

let store ?bb ?loop ?label b ~memory addr value =
  let lat = max addr.lat value.lat in
  let addr = pad ?bb ?loop b addr lat in
  let value = pad ?bb ?loop b value lat in
  let u = add_unit ?bb ?loop ?label b (Store { memory }) in
  attach b addr (u, 0);
  attach b value (u, 1);
  { uid = u; port = 0; lat = lat + 1 }

let declare_memory b name size = Graph.declare_memory b.g name size

(** [counted_loop b ~inits ~cond ~body] builds the standard elastic loop.

    Each initial value enters a header mux; one copy of every header value
    goes to [cond] (which must consume or sink each copy) and one to a
    steering branch.  When the condition holds, the continue-side values
    flow into [body], whose results return to the muxes; otherwise the
    current values leave the loop and are returned.  The mux select comes
    from an init buffer holding one [false] token (select the initial
    value first) and thereafter the previous iteration's condition.

    [control_overhead] models the basic-block control network of the
    BB-ordered HLS strategy [29]: the select distribution path gains that
    many registered stages, making BB-organized circuits slightly slower
    than fast-token circuits [21] (paper Tables 2 vs 3).

    Backedges whose value path is combinational receive an opaque buffer
    (cutting the cycle); pipelined paths receive transparent slack. *)
let counted_loop ?bb ?loop ?(control_overhead = 0) b ~inits ~cond ~body =
  let n = List.length inits in
  if n = 0 then invalid_arg "counted_loop: no loop-carried values";
  let muxes =
    List.init n (fun i ->
        let m =
          add_unit ?bb ?loop b (Mux { inputs = 2 }) ~label:("hdr_mux" ^ string_of_int i)
        in
        Graph.mark_loop_header b.g m;
        m)
  in
  List.iteri (fun i init -> attach b init (List.nth muxes i, 2)) inits;
  let headers = List.map (fun m -> out_wire m) muxes in
  let c = cond headers in
  let split =
    List.map (fun h -> branch ?bb ?loop ~cond_slack:8 b ~cond:c h) headers
  in
  let conts = List.map fst split and exits = List.map snd split in
  let nexts = body conts in
  if List.length nexts <> n then
    invalid_arg "counted_loop: body must return one next value per init";
  (* Every backedge is registered: a value ring may have a zero-latency
     path (e.g. the untaken side of a conditional) even when its nominal
     latency is positive, and an unregistered ring is a combinational
     cycle.  Two slots keep the register II-neutral. *)
  List.iteri
    (fun i next -> attach b (reg ?bb ?loop b next) (List.nth muxes i, 1))
    nexts;
  (* Select ring: init token [false] picks the initial values first. *)
  let sel = reg ?bb ?loop ~narrow:true b c ~slots:2 ~init:[ VBool false ] in
  let sel =
    let rec burden w k =
      if k = 0 then w else burden (reg ?bb ?loop ~narrow:true b w) (k - 1)
    in
    burden sel control_overhead
  in
  (* Per-mux select FIFOs decouple fast rings (e.g. the induction
     variable) from slow ones (long-latency accumulators): the select
     fork hands tokens off immediately instead of pacing every ring to
     the slowest one. *)
  List.iter (fun m -> attach b (slack ?bb ?loop ~narrow:true b sel 8) (m, 0)) muxes;
  List.map (fun e -> { e with lat = 0 }) exits

(** [if_diamond b ~cond ~vals ~then_ ~else_] branches every live value on
    the condition, lets each side transform its copies, and reconverges
    with per-value muxes.  Sides receive tokens only on taken iterations;
    a side that ignores a value simply returns it unchanged. *)
let if_diamond ?bb ?loop b ~cond ~vals ~then_ ~else_ =
  let n = List.length vals in
  let split =
    List.map (fun v -> branch ?bb ?loop ~cond_slack:8 b ~cond v) vals
  in
  let then_out = then_ (List.map fst split) in
  let else_out = else_ (List.map snd split) in
  if List.length then_out <> n || List.length else_out <> n then
    invalid_arg "if_diamond: sides must return one value per input";
  (* Each reconvergence mux consumes its select only when the taken
     side's data arrives; a per-mux slack FIFO on the select line (sized
     to the side latency) lets the condition fork hand tokens off
     immediately, keeping the sides pipelined across iterations.  The
     FIFO must sit after the fan-out point, or the slowest mux would
     still pace all the others. *)
  let depth =
    List.fold_left
      (fun m w -> max m w.lat)
      1
      (then_out @ else_out)
  in
  List.map2
    (fun t e ->
      let lat = max t.lat e.lat in
      let t = pad ?bb ?loop b t lat in
      let e = pad ?bb ?loop b e lat in
      let sel = slack ?bb ?loop ~narrow:true b cond (depth + 1) in
      { (mux ?bb ?loop b ~sel [ t; e ]) with lat })
    then_out else_out

(** Materialize fan-out (forks) and sinks, then validate.  Returns the
    finished circuit graph. *)
let finalize b =
  if b.finalized then invalid_arg "Builder: already finalized";
  b.finalized <- true;
  Graph.iter_units b.g (fun u ->
      let _, n_out = arity u.Graph.kind in
      for p = 0 to n_out - 1 do
        let consumers =
          match Hashtbl.find_opt b.pending (u.Graph.uid, p) with
          | Some l -> List.rev !l
          | None -> []
        in
        match consumers with
        | [] ->
            let s =
              Graph.add_unit b.g Sink ~bb:u.Graph.bb ~loop:u.Graph.loop
            in
            ignore (Graph.connect b.g (u.Graph.uid, p) (s, 0))
        | [ d ] -> ignore (Graph.connect b.g (u.Graph.uid, p) d)
        | ds ->
            let f =
              Graph.add_unit b.g
                (Fork { outputs = List.length ds; lazy_ = false })
                ~bb:u.Graph.bb ~loop:u.Graph.loop
                ~label:("fork_" ^ u.Graph.label)
            in
            ignore (Graph.connect b.g (u.Graph.uid, p) (f, 0));
            List.iteri (fun i d -> ignore (Graph.connect b.g (f, i) d)) ds
      done);
  Validate.check_exn b.g;
  b.g
