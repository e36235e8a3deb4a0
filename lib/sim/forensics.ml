(** Deadlock forensics: wait-for graph extraction and cyclic-core
    isolation over a quiesced simulator state.  See the interface for
    the model. *)

open Dataflow
open Types

type reason = Blocked_output | Awaiting_token

type edge = { src : int; dst : int; channel : int; reason : reason }
type note = { unit_id : int; label : string; state : string option }
type core = { members : int list; core_edges : edge list; notes : note list }
type report = { cycle : int; edges : edge list; cores : core list }

(* ------------------------------------------------------------------ *)
(* Wait-for edge extraction                                            *)

(** Demand-driven construction.  The base facts are the blocked
    channels: a producer offering a token its consumer refuses (valid
    and not ready) waits on that consumer.  Every unit somebody waits on
    is then {e demanded}, in one of two flavours that must not be
    conflated (a unit can owe a token downstream while separately owing
    readiness upstream — merging the two manufactures false cycles):

    - the target of an [Awaiting_token] edge is demanded {e as a
      producer}: it must drive its awaited output valid, which needs the
      (kind-aware) inputs of the value it would produce;
    - the target of a [Blocked_output] edge is demanded {e as a
      consumer}: it must assert ready on the refused input, which needs
      whatever its firing condition mentions — the sibling operands of a
      join, the turn-holders of a strict-rotation arbiter, room
      downstream for a full buffer.

    Each demand expands into [Awaiting_token] edges to the producers of
    the missing inputs and [Blocked_output] edges to the consumers of
    the gating outputs; propagating to a fixpoint yields the wait-for
    graph, whose cycles are exactly what sustains the deadlock.

    Exits that never received a token are demanded (as producers of
    their own completion) unconditionally — they are why the run did not
    complete — so pure starvation deadlocks with no stuck token anywhere
    are traced too. *)

(* The demand rules run inside the sanitizer's watchdog probe, thousands
   of times per monitored run, so they work on tables precomputed once
   per simulation (unit kinds and port rows, channel endpoints by id,
   the engine's live signal arrays) and add each wait straight to an
   int-array adjacency: a demand expansion allocates nothing.  The full
   report and the probe run the same fixpoint, so they agree by
   construction.

   A wait is on a channel's producer ([awaiting], an [Awaiting_token]
   edge) or on its consumer ([blocked], a [Blocked_output] edge); the
   bit is also the flavor the wait demands of its target (0 producer,
   1 consumer). *)
let awaiting = 0
let blocked = 1

(** Per-simulation tables and workspace of the demand fixpoint.
    Everything a probe mutates is reset afterwards by walking only the
    units it touched, so one scratch serves any number of probes of its
    simulation. *)
type probe_scratch = {
  ps_sim : Engine.t;
  ps_valid : Bytes.t;  (** the engine's live signal arrays *)
  ps_ready : Bytes.t;
  ps_data : value array;
  ps_credit : int array;
  ps_pipe : Bytes.t array;
  ps_kind : kind array;
  ps_in : int array array;  (** per unit: input channel per port *)
  ps_out : int array array;  (** per unit: output channel per port *)
  ps_expands : Bytes.t;
      (** per unit: bit [1 lsl flavor] set when a demand of that flavor
          can emit a wait at all, and [x_same] when both flavors' rules
          are one rule *)
  ps_csrc : int array;  (** channel id -> producer unit *)
  ps_cdst : int array;  (** channel id -> consumer unit *)
  ps_exits : int array;  (** Exit unit ids, ascending *)
  ps_mark : Bytes.t;
      (** per unit: demanded as a producer ([1]) and as a consumer ([2]),
          [m_touched], and the DFS colors [m_grey] and [m_black] *)
  ps_frontier : int array;
      (** FIFO of demanded [(unit lsl 1) lor flavor], each pushed once *)
  mutable ps_head : int;
  mutable ps_tail : int;
  ps_first : int array;  (** per unit: its latest out-edge, [-1] for none *)
  mutable ps_esrc : int array;  (** per edge, in discovery order: source *)
  mutable ps_edst : int array;  (** target unit *)
  mutable ps_ewait : int array;  (** [(channel lsl 1) lor bit] *)
  mutable ps_enext : int array;  (** the source's previous out-edge *)
  mutable ps_edges : int;
  ps_touched : int array;  (** units with an edge or a demand *)
  mutable ps_touched_n : int;
  ps_cursor : int array;  (** per unit on the DFS stack: next edge *)
  ps_stack : int array;
}

(* [ps_mark] bits besides the demand bits, which are [1 lsl bit] for
   the wait bit that demanded the unit. *)
let m_touched = 4
let m_grey = 8
let m_black = 16

(* The [ps_expands] bit of a unit whose two rules are one. *)
let x_same = 4

let probe_scratch sim =
  let g = Engine.graph_of sim in
  let nu = max 1 g.Graph.n_units in
  let nc = max 1 g.Graph.n_channels in
  let csrc = Array.make nc 0 and cdst = Array.make nc 0 in
  Graph.iter_channels g (fun c ->
      csrc.(c.Graph.id) <- c.Graph.src.Graph.unit_id;
      cdst.(c.Graph.id) <- c.Graph.dst.Graph.unit_id);
  let kinds = Array.make nu Stub in
  let expands = Bytes.make nu '\000' in
  let exits = ref [] in
  Graph.iter_units g (fun u ->
      let uid = u.Graph.uid in
      kinds.(uid) <- u.Graph.kind;
      (* producer rules exist for every kind but sources; consumer rules
         only for the kinds whose firing condition mentions more than
         the refused input's own downstream (see [expand]) *)
      Bytes.set expands uid
        (Char.chr
           (match u.Graph.kind with
           | Entry _ | Stub -> 0
           | Join _ | Operator _ | Store _ | Mux _ | Branch _ | Arbiter _ ->
               1 lor 2 lor x_same
           | Fork { lazy_ = true; _ } -> 1 lor 2
           | _ -> 1));
      if u.Graph.kind = Exit then exits := uid :: !exits);
  let r = Engine.raw sim in
  {
    ps_sim = sim;
    ps_valid = r.Engine.raw_valid;
    ps_ready = r.Engine.raw_ready;
    ps_data = r.Engine.raw_data;
    ps_credit = r.Engine.raw_credit;
    ps_pipe = r.Engine.raw_pipe_has;
    ps_kind = kinds;
    ps_in = g.Graph.in_of;
    ps_out = g.Graph.out_of;
    ps_expands = expands;
    ps_csrc = csrc;
    ps_cdst = cdst;
    ps_exits = Array.of_list (List.rev !exits);
    ps_mark = Bytes.make nu '\000';
    ps_frontier = Array.make (2 * nu) 0;
    ps_head = 0;
    ps_tail = 0;
    ps_first = Array.make nu (-1);
    ps_esrc = Array.make (2 * nc) 0;
    ps_edst = Array.make (2 * nc) 0;
    ps_ewait = Array.make (2 * nc) 0;
    ps_enext = Array.make (2 * nc) 0;
    ps_edges = 0;
    ps_touched = Array.make nu 0;
    ps_touched_n = 0;
    ps_cursor = Array.make nu 0;
    ps_stack = Array.make nu 0;
  }

(* Workspace updates.  A unit enters [ps_touched] the first time it
   gains an edge or a demand; every grey or black unit of the DFS is the
   target of an edge, hence demanded, hence touched — so clearing the
   touched units' marks and edge lists resets everything.  The arrays
   are sized to the graph and indexed by its unit ids, channel ids and
   the bounded counters below, so the updates skip bounds checks. *)
let[@inline] mark ps u = Char.code (Bytes.unsafe_get ps.ps_mark u)
let[@inline] set_mark ps u m = Bytes.unsafe_set ps.ps_mark u (Char.unsafe_chr m)

let[@inline] touch ps u m =
  if m land m_touched = 0 then begin
    Array.unsafe_set ps.ps_touched ps.ps_touched_n u;
    ps.ps_touched_n <- ps.ps_touched_n + 1
  end

(* Demand [u] as a producer ([bit = awaiting]) or as a consumer.  A
   demand its unit's rules answer with no wait is only marked, and so is
   the second flavor of a unit whose two rules are one: its expansion
   would repeat the first one's edges. *)
let[@inline] demand ps u bit =
  let m = mark ps u in
  let flag = 1 lsl bit in
  if m land flag = 0 then begin
    touch ps u m;
    set_mark ps u (m lor flag lor m_touched);
    let x = Char.code (Bytes.unsafe_get ps.ps_expands u) in
    if x land flag <> 0 && not (x land x_same <> 0 && m land 3 <> 0) then begin
      Array.unsafe_set ps.ps_frontier ps.ps_tail ((u lsl 1) lor bit);
      ps.ps_tail <- ps.ps_tail + 1
    end
  end

let grow_edges ps =
  let grow a = Array.append a (Array.make (Array.length a) 0) in
  ps.ps_esrc <- grow ps.ps_esrc;
  ps.ps_edst <- grow ps.ps_edst;
  ps.ps_ewait <- grow ps.ps_ewait;
  ps.ps_enext <- grow ps.ps_enext

(* [src] waits on the producer ([bit = awaiting]) or the consumer of
   channel [cid], and demands it.  [src] is already touched. *)
let[@inline] wait ps src cid bit =
  let dst =
    Array.unsafe_get (if bit = awaiting then ps.ps_csrc else ps.ps_cdst) cid
  in
  let e = ps.ps_edges in
  if e = Array.length ps.ps_edst then grow_edges ps;
  Array.unsafe_set ps.ps_esrc e src;
  Array.unsafe_set ps.ps_edst e dst;
  Array.unsafe_set ps.ps_ewait e ((cid lsl 1) lor bit);
  Array.unsafe_set ps.ps_enext e (Array.unsafe_get ps.ps_first src);
  Array.unsafe_set ps.ps_first src e;
  ps.ps_edges <- e + 1;
  demand ps dst bit

let[@inline] in_cid ps uid p =
  let row = Array.unsafe_get ps.ps_in uid in
  if p < Array.length row then Array.unsafe_get row p else -1

let[@inline] rvalid ps cid = Bytes.unsafe_get ps.ps_valid cid <> '\000'
let[@inline] rready ps cid = Bytes.unsafe_get ps.ps_ready cid <> '\000'

let port_valid ps uid p =
  let cid = in_cid ps uid p in
  cid >= 0 && rvalid ps cid

(* A pipelined unit with tokens in flight. *)
let busy ps uid =
  let has = Array.unsafe_get ps.ps_pipe uid in
  let any = ref false and i = ref 0 in
  while (not !any) && !i < Bytes.length has do
    if Bytes.unsafe_get has !i <> '\000' then any := true;
    incr i
  done;
  !any

(* A starved operand: port [p] shows no token. *)
let[@inline] await ps uid p =
  let cid = in_cid ps uid p in
  if cid >= 0 && not (rvalid ps cid) then wait ps uid cid awaiting

(* Starved-operand waits for ports [0 .. n-1]. *)
let await_n ps uid n =
  for p = 0 to n - 1 do
    await ps uid p
  done

(* Cross-gated units (arbiter, lazy fork) assert VALID on every output
   while a grant is pending, so an output that shows no VALID carries no
   obligation — an edge over it would pair with the consumer's own
   awaiting-token edge into a vacuous cycle. *)
let gated ps uid =
  let row = Array.unsafe_get ps.ps_out uid in
  for p = 0 to Array.length row - 1 do
    let cid = Array.unsafe_get row p in
    if cid >= 0 && rvalid ps cid && not (rready ps cid) then
      wait ps uid cid blocked
  done

(* Data inputs the unit's firing needs and cannot currently see.  The
   await filter keeps only the invalid ones, so over-approximating with
   the full operand set is fine. *)
let mux_await ps uid inputs =
  let sel = in_cid ps uid 0 in
  if sel >= 0 then
    if not (rvalid ps sel) then await ps uid 0
    else
      (* Selector present: only the chosen data input can help. *)
      match ps.ps_data.(sel) with
      | VBool b -> await ps uid (if b then 1 else 2)
      | VInt i when i >= 0 && i < inputs -> await ps uid (1 + i)
      | _ -> ()

(* The arbiter's starved-requester waits; a grant-complete arbiter (no
   such wait) falls back to its output gating instead. *)
let arbiter_or_gated ps uid ~conservative inputs policy =
  let before = ps.ps_edges in
  (match policy with
  | Priority _ ->
      (* Any requester is served, so it starves only with none.  The
         all-inputs demand is an OR-wait (one arrival suffices), exact
         only at quiescence — a conservative probe stays silent. *)
      let any = ref false in
      for p = 0 to inputs - 1 do
        if port_valid ps uid p then any := true
      done;
      if (not !any) && not conservative then await_n ps uid inputs
  | Rotation _ | Phased _ ->
      (* Only the turn holder(s) can be served (Figure 1d).  A phased
         arbiter with several clusters holds an OR-wait across their
         holders; conservatively only a lone holder is a real wait. *)
      let n = match policy with Phased cl -> List.length cl | _ -> 1 in
      let holders = ref 0 in
      for i = 0 to n - 1 do
        if Engine.turn_holder ps.ps_sim uid i >= 0 then incr holders
      done;
      if not (conservative && !holders > 1) then
        for i = 0 to n - 1 do
          let p = Engine.turn_holder ps.ps_sim uid i in
          if p >= 0 then await ps uid p
        done);
  if ps.ps_edges = before then gated ps uid

(** The demand rules: add the waits of unit [uid] demanded as a producer
    ([bit = awaiting]) or as a consumer ([bit = blocked]), in ascending
    port order (turn-holder order for rotation/phased arbiters).

    [conservative] suppresses the edges that are only exact once the
    circuit has quiesced, so that a mid-flight probe never reports a
    cycle that in-flight tokens could still break:

    - a Merge's producer-demand is an OR-wait approximated as an AND —
      exact at quiescence (an alternative branch that could fire would
      have), unsound mid-flight;
    - a pipelined unit (operator/load/store) with tokens in flight will
      deliver its output without consuming anything, so demanding its
      inputs mid-flight manufactures waits that drain on their own.

    Output-gating edges are only genuine for units whose output VALID
    is cross-gated by a sibling output's readiness (arbiter outputs
    fire together; a lazy fork is all-or-nothing).  Every other kind
    drives valid from its inputs alone, so a downstream block shows up
    as a base [valid && not ready] edge — emitting gated edges for them
    too would manufacture false cycles through channels that carry no
    obligation (e.g. an eager fork's already-delivered outputs). *)
let expand ps ~conservative uid bit =
  if bit = awaiting then (
    (* demanded as a producer *)
    match Array.unsafe_get ps.ps_kind uid with
    | Entry _ | Stub -> () (* a source: if exhausted, nothing can revive it *)
    | Exit | Sink | Const _ | Buffer _ | Fork { lazy_ = false; _ } ->
        await ps uid 0
    | Load _ -> if not (conservative && busy ps uid) then await ps uid 0
    | Fork { lazy_ = true; _ } ->
        (* All-or-nothing: every sibling must be ready too. *)
        if port_valid ps uid 0 then gated ps uid else await ps uid 0
    | Join { inputs; _ } -> await_n ps uid inputs
    | Operator { ports; _ } ->
        if not (conservative && busy ps uid) then await_n ps uid ports
    | Store _ -> if not (conservative && busy ps uid) then await_n ps uid 2
    | Merge { inputs } ->
        (* An OR-wait; but the circuit is quiesced, so an alternative
           producer that could fire would have — all branches are dead
           and the AND approximation is exact.  Mid-flight that
           reasoning fails, so a conservative probe stays silent. *)
        if not conservative then await_n ps uid inputs
    | Mux { inputs } -> mux_await ps uid inputs
    | Branch _ -> await_n ps uid 2
    | Arbiter { inputs; policy } ->
        (* Producing on one output also needs the sibling output ready
           (they fire together). *)
        arbiter_or_gated ps uid ~conservative inputs policy
    | Credit_counter _ ->
        if ps.ps_credit.(uid) = 0 then await ps uid 0 (* credit to return *))
  else
    (* Demanded as a consumer: why is ready deasserted on an input
       presenting a token?  The firing condition: sibling operands for
       all-input-fire units, the grant (and joint output readiness) for
       arbiters.  Kinds whose refusal can only come from a downstream
       block need no edges here: the block is visible as a base edge
       already. *)
    match Array.unsafe_get ps.ps_kind uid with
    | Join { inputs; _ } -> await_n ps uid inputs
    | Operator { ports; _ } ->
        (* A busy pipeline may refuse an operand merely until a stage
           advances or its output drains — mid-flight that refusal
           resolves on its own, so a conservative probe stays silent. *)
        if not (conservative && busy ps uid) then await_n ps uid ports
    | Store _ -> if not (conservative && busy ps uid) then await_n ps uid 2
    | Mux { inputs } -> mux_await ps uid inputs
    | Branch _ -> await_n ps uid 2
    | Arbiter { inputs; policy } ->
        arbiter_or_gated ps uid ~conservative inputs policy
    | Fork { lazy_ = true; _ } -> gated ps uid
    | Entry _ | Exit | Sink | Stub | Const _
    | Fork { lazy_ = false; _ }
    | Buffer _ | Load _ | Merge _ | Credit_counter _ ->
        ()

(** The demand fixpoint.  The base facts are the blocked channels
    [stalled.(0 .. n_stalled-1)]: a producer offering a token its
    consumer refuses waits on that consumer.  The exits are demanded as
    producers.  Then every demand is expanded once, first in first out,
    into waits that demand their targets in turn.  Leaves the wait-for
    graph in the scratch's edge arrays, in discovery order. *)
let close ps ~conservative ~stalled ~n_stalled =
  for i = 0 to n_stalled - 1 do
    let cid = stalled.(i) in
    let src = ps.ps_csrc.(cid) in
    let m = mark ps src in
    touch ps src m;
    set_mark ps src (m lor m_touched);
    wait ps src cid blocked
  done;
  for i = 0 to Array.length ps.ps_exits - 1 do
    demand ps ps.ps_exits.(i) awaiting
  done;
  while ps.ps_head < ps.ps_tail do
    let d = Array.unsafe_get ps.ps_frontier ps.ps_head in
    ps.ps_head <- ps.ps_head + 1;
    expand ps ~conservative (d lsr 1) (d land 1)
  done

(** The full wait-for graph of a quiesced simulator state (or, with
    [~conservative:true], a sound under-approximation of it mid-flight),
    in discovery order, without duplicate edges. *)
let wait_edges ?(conservative = false) sim =
  let ps = probe_scratch sim in
  let stalled = Array.of_list (Engine.stalled_channels sim) in
  close ps ~conservative ~stalled ~n_stalled:(Array.length stalled);
  let seen = Hashtbl.create 64 and edges = ref [] in
  for e = 0 to ps.ps_edges - 1 do
    let w = ps.ps_ewait.(e) in
    let edge =
      {
        src = ps.ps_esrc.(e);
        dst = ps.ps_edst.(e);
        channel = w lsr 1;
        reason = (if w land 1 = awaiting then Awaiting_token else Blocked_output);
      }
    in
    if not (Hashtbl.mem seen edge) then begin
      Hashtbl.replace seen edge ();
      edges := edge :: !edges
    end
  done;
  List.rev !edges

(* ------------------------------------------------------------------ *)
(* Cyclic-core isolation                                               *)

let state_note sim uid =
  match Engine.credit_count sim uid with
  | Some n -> Some (Fmt.str "credits %d" n)
  | None -> (
      match Engine.buffer_occupancy sim uid with
      | Some (occ, slots) ->
          Some
            (Fmt.str "buffer %d/%d%s" occ slots
               (if occ >= slots then " (full)" else ""))
      | None -> (
          match Engine.pipeline_busy sim uid with
          | Some (busy, depth) -> Some (Fmt.str "pipeline %d/%d" busy depth)
          | None -> None))

(* ------------------------------------------------------------------ *)
(* Livelock snapshot (Out_of_fuel post-mortem)                          *)

type firing = { f_unit : int; f_label : string; f_last : int; f_state : string option }

type livelock = {
  fuel : int;
  window : int;
  final_cycle : int;
  recent : firing list;
  exit_tokens : int;
  total_transfers : int;
}

(** How many final cycles of an out-of-fuel run count as "recent". *)
let livelock_window = 64

(** An out-of-fuel run is not quiesced, so the wait-for analysis does
    not apply; what is diagnosable instead is {e who is still moving}.
    The snapshot lists every unit whose sequential state changed during
    the last {!livelock_window} cycles of the run, most recently active
    first, with the same live-state annotations (credits, buffer
    occupancy, pipeline fill) as deadlock cores — a tight recent set
    around a loop with no exit progress reads as a token-recirculation
    livelock, while "everything is firing" reads as an honest too-small
    fuel budget. *)
let analyze_livelock (outcome : Engine.outcome) =
  match outcome.Engine.stats.Engine.status with
  | Engine.Completed _ | Engine.Deadlock _ -> None
  | Engine.Out_of_fuel fuel ->
      let sim = outcome.Engine.sim in
      let g = Engine.graph_of sim in
      let final_cycle = outcome.Engine.stats.Engine.cycles - 1 in
      let cutoff = final_cycle - livelock_window + 1 in
      let recent =
        Graph.fold_units g
          (fun acc u ->
            let uid = u.Graph.uid in
            let last = Engine.last_fire_cycle sim uid in
            if last >= cutoff then
              {
                f_unit = uid;
                f_label = Graph.label_of g uid;
                f_last = last;
                f_state = state_note sim uid;
              }
              :: acc
            else acc)
          []
        |> List.sort (fun a b ->
               match compare b.f_last a.f_last with
               | 0 -> compare a.f_unit b.f_unit
               | c -> c)
      in
      Some
        {
          fuel;
          window = livelock_window;
          final_cycle;
          recent;
          exit_tokens =
            List.length outcome.Engine.stats.Engine.exit_values;
          total_transfers = outcome.Engine.stats.Engine.transfers;
        }

let pp_livelock ppf l =
  Fmt.pf ppf
    "@[<v2>out of fuel after %d cycles (%d transfers, %d exit tokens): %d \
     unit(s) still firing in the last %d cycles"
    l.fuel l.total_transfers l.exit_tokens (List.length l.recent) l.window;
  List.iter
    (fun f ->
      Fmt.pf ppf "@,%s (unit %d) last fired at cycle %d%s" f.f_label f.f_unit
        f.f_last
        (match f.f_state with Some s -> Fmt.str " [%s]" s | None -> ""))
    l.recent;
  Fmt.pf ppf "@]"

let build_report ?conservative sim ~cycle =
  let g = Engine.graph_of sim in
  let edges = wait_edges ?conservative sim in
  let succ_tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let l =
        match Hashtbl.find_opt succ_tbl e.src with Some l -> l | None -> []
      in
      Hashtbl.replace succ_tbl e.src (e.dst :: l))
    edges;
  let succ u =
    match Hashtbl.find_opt succ_tbl u with Some l -> l | None -> []
  in
  let nodes =
    Graph.fold_units g (fun acc u -> u.Graph.uid :: acc) [] |> List.rev
  in
  let scc = Analysis.Scc.compute ~nodes ~succ in
  (* A cyclic core is a component of size > 1, or a single unit
     waiting on itself. *)
  let cores = ref [] in
  for c = Analysis.Scc.n_components scc - 1 downto 0 do
    let members = List.sort compare (Analysis.Scc.members scc c) in
    let cyclic =
      match members with
      | [] -> false
      | [ u ] -> List.exists (fun e -> e.src = u && e.dst = u) edges
      | _ -> true
    in
    if cyclic then begin
      let inside u = List.mem u members in
      let core_edges =
        List.filter (fun e -> inside e.src && inside e.dst) edges
      in
      let notes =
        List.map
          (fun u ->
            { unit_id = u; label = Graph.label_of g u; state = state_note sim u })
          members
      in
      cores := { members; core_edges; notes } :: !cores
    end
  done;
  { cycle; edges; cores = !cores }

let analyze (outcome : Engine.outcome) =
  match outcome.Engine.stats.Engine.status with
  | Engine.Completed _ | Engine.Out_of_fuel _ -> None
  | Engine.Deadlock cycle -> Some (build_report outcome.Engine.sim ~cycle)

(** Mid-flight probe over a still-running simulation: the conservative
    wait-for graph (no merge OR-waits, no busy pipelines demanded) only
    contains edges whose wait cannot resolve on its own, so any cyclic
    core it reports is already a sustained deadlock — even while other
    parts of the circuit are still making progress.  This is what lets
    the sanitizer convict a wedged sharing wrapper long before global
    quiescence. *)
let probe sim ~cycle = build_report ~conservative:true sim ~cycle

(* Iterative DFS from every touched unit, white/grey/black: a grey hit
   is a back edge, i.e. a directed cycle (self-loops included). *)
let has_cycle ps =
  let stack = ps.ps_stack and cursor = ps.ps_cursor and first = ps.ps_first in
  let found = ref false and i = ref 0 in
  let edst = ps.ps_edst and enext = ps.ps_enext in
  while (not !found) && !i < ps.ps_touched_n do
    let s = Array.unsafe_get ps.ps_touched !i in
    incr i;
    let m = mark ps s in
    let e = Array.unsafe_get first s in
    (* a unit nobody waits on (no demand bit) is on no cycle *)
    if m land (m_grey lor m_black) = 0 && m land 3 <> 0 && e >= 0 then begin
      set_mark ps s (m lor m_grey);
      Array.unsafe_set cursor s e;
      Array.unsafe_set stack 0 s;
      let sp = ref 1 in
      while (not !found) && !sp > 0 do
        let u = Array.unsafe_get stack (!sp - 1) in
        let e = Array.unsafe_get cursor u in
        if e < 0 then begin
          set_mark ps u (mark ps u lxor (m_grey lor m_black));
          decr sp
        end
        else begin
          Array.unsafe_set cursor u (Array.unsafe_get enext e);
          let v = Array.unsafe_get edst e in
          let mv = mark ps v in
          if mv land m_grey <> 0 then found := true
          else if mv land m_black = 0 then begin
            let ev = Array.unsafe_get first v in
            if ev < 0 then set_mark ps v (mv lor m_black) (* a dead end *)
            else begin
              set_mark ps v (mv lor m_grey);
              Array.unsafe_set cursor v ev;
              Array.unsafe_set stack !sp v;
              incr sp
            end
          end
        end
      done
    end
  done;
  !found

(** Does the conservative probe find a cyclic core at all?  Same
    fixpoint as {!probe}, but answers cycle-existence by one DFS over
    the adjacency arrays — no hashtables, no SCC partition, no notes, no
    report, and no allocation.  A directed cycle exists iff the probe's
    core list is non-empty (a core is an SCC of size > 1 or a
    self-loop), so the answer equals [(probe sim ~cycle).cores <> []]
    for every state.  This is the sanitizer's per-trigger fast path:
    most wait-cycle probes come back clean, and a clean answer here
    costs a fraction of a full report. *)
let probe_core_exists ps ~stalled ~n_stalled =
  close ps ~conservative:true ~stalled ~n_stalled;
  let found = has_cycle ps in
  (* Reset the scratch by undoing only what this probe touched. *)
  for i = 0 to ps.ps_touched_n - 1 do
    let u = Array.unsafe_get ps.ps_touched i in
    Array.unsafe_set ps.ps_first u (-1);
    set_mark ps u 0
  done;
  ps.ps_touched_n <- 0;
  ps.ps_edges <- 0;
  ps.ps_head <- 0;
  ps.ps_tail <- 0;
  found

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let label_in core u =
  match List.find_opt (fun n -> n.unit_id = u) core.notes with
  | Some n -> n.label
  | None -> Fmt.str "unit_%d" u

let pp_reason ppf = function
  | Blocked_output -> Fmt.string ppf "output token refused by"
  | Awaiting_token -> Fmt.string ppf "awaiting token from"

let pp_core i ppf core =
  Fmt.pf ppf "@[<v2>cyclic core %d (%d units):" (i + 1)
    (List.length core.members);
  List.iter
    (fun n ->
      Fmt.pf ppf "@,%s (unit %d)%s" n.label n.unit_id
        (match n.state with Some s -> Fmt.str " [%s]" s | None -> ""))
    core.notes;
  List.iter
    (fun e ->
      Fmt.pf ppf "@,%s -> %a -> %s (channel %d)" (label_in core e.src)
        pp_reason e.reason (label_in core e.dst) e.channel)
    core.core_edges;
  Fmt.pf ppf "@]"

let pp ppf r =
  Fmt.pf ppf "@[<v>deadlock at cycle %d: %d cyclic core(s) in a %d-edge wait-for graph"
    r.cycle (List.length r.cores) (List.length r.edges);
  List.iteri (fun i core -> Fmt.pf ppf "@,%a" (pp_core i) core) r.cores;
  Fmt.pf ppf "@]"

let to_dot g r =
  let in_core = Hashtbl.create 32 in
  let note_of = Hashtbl.create 32 in
  let core_channel = Hashtbl.create 32 in
  List.iter
    (fun core ->
      List.iter (fun u -> Hashtbl.replace in_core u ()) core.members;
      List.iter
        (fun n ->
          match n.state with
          | Some s -> Hashtbl.replace note_of n.unit_id s
          | None -> ())
        core.notes;
      List.iter
        (fun e -> Hashtbl.replace core_channel e.channel ())
        core.core_edges)
    r.cores;
  Dot.to_string ~name:"deadlock"
    ~annotate:(fun u -> Hashtbl.find_opt note_of u)
    ~emphasize:(fun u -> Hashtbl.mem in_core u)
    ~emphasize_channel:(fun c -> Hashtbl.mem core_channel c)
    g

let core_contains r f =
  List.exists (fun core -> List.exists f core.members) r.cores
