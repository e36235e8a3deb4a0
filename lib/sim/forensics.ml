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

type flavor = As_producer | As_consumer

(** [conservative] suppresses the edges that are only exact once the
    circuit has quiesced, so that a mid-flight probe never reports a
    cycle that in-flight tokens could still break:

    - a Merge's producer-demand is an OR-wait approximated as an AND —
      exact at quiescence (an alternative branch that could fire would
      have), unsound mid-flight;
    - a pipelined unit (operator/load/store) with tokens in flight will
      deliver its output without consuming anything, so demanding its
      inputs mid-flight manufactures waits that drain on their own. *)
let demanded_iter ?(conservative = false) sim g uid flavor ~f =
  let kind = Graph.kind_of g uid in
  (* Raw channel-id plumbing: this function runs inside the sanitizer's
     per-trigger probe fixpoint, thousands of times per monitored run,
     so it reads the graph's flat port tables and the engine's raw
     signal arrays directly and yields [(channel, reason)] pairs to [f]
     instead of allocating edge records — an [Awaiting_token] pair is a
     wait on the channel's producer, a [Blocked_output] pair on its
     consumer.  Emission order is ascending port order (turn-holder
     order for rotation/phased arbiters), which {!demanded_edges}
     relies on. *)
  let r = Engine.raw sim in
  let rvalid cid = Bytes.get r.Engine.raw_valid cid <> '\000' in
  let rready cid = Bytes.get r.Engine.raw_ready cid <> '\000' in
  let in_cid p =
    let row = g.Graph.in_of.(uid) in
    if p < Array.length row then Array.unsafe_get row p else -1
  in
  let valid p =
    let cid = in_cid p in
    cid >= 0 && rvalid cid
  in
  let await p =
    let cid = in_cid p in
    if cid >= 0 && not (rvalid cid) then f cid Awaiting_token
  in
  (* Starved-operand edges for ports [0 .. n-1]. *)
  let await_n n =
    for p = 0 to n - 1 do
      await p
    done
  in
  let await2 p q =
    await p;
    await q
  in
  let gated () =
    (* Cross-gated units (arbiter, lazy fork) assert VALID on every
       output while a grant is pending, so an output that shows no
       VALID carries no obligation — an edge over it would pair with
       the consumer's own awaiting-token edge into a vacuous cycle. *)
    let row = g.Graph.out_of.(uid) in
    for p = 0 to Array.length row - 1 do
      let cid = Array.unsafe_get row p in
      if cid >= 0 && rvalid cid && not (rready cid) then
        f cid Blocked_output
    done
  in
  (* Data inputs the unit's firing needs and cannot currently see.  The
     await filter keeps only the invalid ones, so over-approximating
     with the full operand set is fine. *)
  let mux_await inputs =
    let sel = in_cid 0 in
    if sel >= 0 then
      if not (rvalid sel) then await 0
      else
        (* Selector present: only the chosen data input can help. *)
        match r.Engine.raw_data.(sel) with
        | VBool b -> await (if b then 1 else 2)
        | VInt i when i >= 0 && i < inputs -> await (1 + i)
        | _ -> ()
  in
  (* Emits the arbiter's starved-requester waits; returns whether any
     edge was emitted (a grant-complete arbiter falls back to its
     output gating instead). *)
  let arbiter_await inputs policy emitted =
    let track cid reason =
      emitted := true;
      f cid reason
    in
    (match policy with
    | Priority _ ->
        (* Any requester is served, so it starves only with none.  The
           all-inputs demand is an OR-wait (one arrival suffices), exact
           only at quiescence — a conservative probe stays silent. *)
        let any = ref false in
        for p = 0 to inputs - 1 do
          if valid p then any := true
        done;
        if (not !any) && not conservative then
          for p = 0 to inputs - 1 do
            let cid = in_cid p in
            if cid >= 0 && not (rvalid cid) then track cid Awaiting_token
          done
    | Rotation _ | Phased _ -> (
        (* Only the turn holder(s) can be served (Figure 1d).  A phased
           arbiter with several clusters holds an OR-wait across their
           holders; conservatively only a lone holder is a real wait. *)
        match Engine.arbiter_turn_holders sim uid with
        | Some holders ->
            if not (conservative && List.length holders > 1) then
              List.iter
                (fun p ->
                  let cid = in_cid p in
                  if cid >= 0 && not (rvalid cid) then
                    track cid Awaiting_token)
                holders
        | None -> ()));
    !emitted
  in
  let arbiter_or_gated inputs policy =
    if not (arbiter_await inputs policy (ref false)) then gated ()
  in
  (* Output-gating edges are only genuine for units whose output VALID
     is crossed-gated by a sibling output's readiness (arbiter outputs
     fire together; a lazy fork is all-or-nothing).  Every other kind
     drives valid from its inputs alone, so a downstream block shows up
     as a base [valid && not ready] edge — emitting gated edges for them
     too would manufacture false cycles through channels that carry no
     obligation (e.g. an eager fork's already-delivered outputs). *)
  let busy () = Engine.pipeline_fill sim uid > 0 in
  match flavor with
  | As_producer -> (
      match kind with
      | Entry _ | Stub -> () (* a source: if exhausted, nothing can revive it *)
      | Exit | Sink | Const _ | Buffer _ -> await 0
      | Load _ -> if not (conservative && busy ()) then await 0
      | Fork { lazy_ = false; _ } -> await 0
      | Fork { lazy_ = true; _ } ->
          (* All-or-nothing: every sibling must be ready too. *)
          if valid 0 then gated () else await 0
      | Join { inputs; _ } -> await_n inputs
      | Operator { ports; _ } ->
          if not (conservative && busy ()) then await_n ports
      | Store _ -> if not (conservative && busy ()) then await2 0 1
      | Merge { inputs } ->
          (* An OR-wait; but the circuit is quiesced, so an alternative
             producer that could fire would have — all branches are dead
             and the AND approximation is exact.  Mid-flight that
             reasoning fails, so a conservative probe stays silent. *)
          if not conservative then await_n inputs
      | Mux { inputs } -> mux_await inputs
      | Branch _ -> await2 0 1
      | Arbiter { inputs; policy } ->
          (* Producing on one output also needs the sibling output ready
             (they fire together). *)
          arbiter_or_gated inputs policy
      | Credit_counter _ ->
          (* Kind already matched, so the raw per-uid slot is live. *)
          if r.Engine.raw_credit.(uid) = 0 then await 0 (* credit to return *))
  | As_consumer -> (
      (* Why is ready deasserted on an input presenting a token?  The
         firing condition: sibling operands for all-input-fire units,
         the grant (and joint output readiness) for arbiters.  Kinds
         whose refusal can only come from a downstream block need no
         edges here: the block is visible as a base edge already. *)
      match kind with
      | Join { inputs; _ } -> await_n inputs
      | Operator { ports; _ } ->
          (* A busy pipeline may refuse an operand merely until a stage
             advances or its output drains — mid-flight that refusal
             resolves on its own, so a conservative probe stays silent. *)
          if not (conservative && busy ()) then await_n ports
      | Store _ -> if not (conservative && busy ()) then await2 0 1
      | Mux { inputs } -> mux_await inputs
      | Branch _ -> await2 0 1
      | Arbiter { inputs; policy } -> arbiter_or_gated inputs policy
      | Fork { lazy_ = true; _ } -> gated ()
      | Entry _ | Exit | Sink | Stub | Const _
      | Fork { lazy_ = false; _ }
      | Buffer _ | Load _ | Merge _ | Credit_counter _ ->
          ())

(** Record-building wrapper over {!demanded_iter} for the full report
    path ({!wait_edges}); the probe fast path consumes the iterator
    directly with its precomputed channel-endpoint arrays. *)
let demanded_edges ?conservative sim g uid flavor =
  let acc = ref [] in
  demanded_iter ?conservative sim g uid flavor ~f:(fun cid reason ->
      let c = Graph.channel_exn g cid in
      let dst =
        match reason with
        | Awaiting_token -> c.Graph.src.Graph.unit_id
        | Blocked_output -> c.Graph.dst.Graph.unit_id
      in
      acc := { src = uid; dst; channel = cid; reason } :: !acc);
  List.rev !acc

(** The full wait-for graph of a quiesced simulator state (or, with
    [~conservative:true], a sound under-approximation of it mid-flight). *)
let wait_edges ?conservative sim =
  let g = Engine.graph_of sim in
  let edges = ref [] in
  let seen = Hashtbl.create 64 in
  let demanded = Hashtbl.create 64 in
  let frontier = Queue.create () in
  let demand u flavor =
    if not (Hashtbl.mem demanded (u, flavor)) then begin
      Hashtbl.replace demanded (u, flavor) ();
      Queue.add (u, flavor) frontier
    end
  in
  let add e =
    let key = (e.src, e.dst, e.channel, e.reason) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      edges := e :: !edges;
      demand e.dst
        (match e.reason with
        | Awaiting_token -> As_producer
        | Blocked_output -> As_consumer)
    end
  in
  Graph.iter_channels g (fun c ->
      let cid = c.Graph.id in
      if Engine.channel_valid sim cid && not (Engine.channel_ready sim cid)
      then
        add
          {
            src = c.Graph.src.Graph.unit_id;
            dst = c.Graph.dst.Graph.unit_id;
            channel = cid;
            reason = Blocked_output;
          });
  Graph.iter_units g (fun u ->
      if u.Graph.kind = Exit then demand u.Graph.uid As_producer);
  while not (Queue.is_empty frontier) do
    let u, flavor = Queue.pop frontier in
    List.iter add (demanded_edges ?conservative sim g u flavor)
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

(** Does the conservative probe find a cyclic core at all?  Same edge
    set as {!probe} (the same [demanded_edges] fixpoint over the same
    base facts), but builds only an adjacency array and answers
    cycle-existence by one DFS — no hashtables, no SCC partition, no
    notes, no report.  A directed cycle exists iff the probe's core
    list is non-empty (a core is an SCC of size > 1 or a self-loop),
    so [probe_core_exists sim = (probe sim ~cycle).cores <> []] for
    every state.  This is the sanitizer's per-trigger fast path: most
    wait-cycle probes come back clean, and a clean answer here costs a
    fraction of a full report. *)

(** Preallocated workspace for {!probe_core_exists}: per-unit adjacency
    and coloring arrays sized to one graph, plus the static facts every
    probe re-derives (channel endpoints by id, the Exit unit list).
    Reused across thousands of probes per run; everything mutable is
    reset after each call by walking only the units actually touched. *)
type probe_scratch = {
  ps_nu : int;
  ps_succ : int list array;          (** per-unit successor lists *)
  ps_demanded : Bytes.t;             (** 2 flags per unit, one per flavor *)
  ps_color : Bytes.t;                (** DFS white/grey/black *)
  mutable ps_touched : int list;     (** units with succ or demand flags *)
  mutable ps_colored : int list;     (** units with a non-white color *)
  ps_csrc : int array;               (** channel id -> producer unit *)
  ps_cdst : int array;               (** channel id -> consumer unit *)
  ps_exits : int array;              (** Exit unit ids *)
}

let probe_scratch sim =
  let g = Engine.graph_of sim in
  let nu = max 1 g.Graph.n_units in
  let nc = max 1 g.Graph.n_channels in
  let csrc = Array.make nc 0 and cdst = Array.make nc 0 in
  Graph.iter_channels g (fun c ->
      csrc.(c.Graph.id) <- c.Graph.src.Graph.unit_id;
      cdst.(c.Graph.id) <- c.Graph.dst.Graph.unit_id);
  let exits = ref [] in
  Graph.iter_units g (fun u ->
      if u.Graph.kind = Exit then exits := u.Graph.uid :: !exits);
  {
    ps_nu = nu;
    ps_succ = Array.make nu [];
    ps_demanded = Bytes.make (2 * nu) '\000';
    ps_color = Bytes.make nu '\000';
    ps_touched = [];
    ps_colored = [];
    ps_csrc = csrc;
    ps_cdst = cdst;
    ps_exits = Array.of_list !exits;
  }

let probe_core_exists ?scratch ?stalled sim =
  let g = Engine.graph_of sim in
  let ps = match scratch with Some ps -> ps | None -> probe_scratch sim in
  let succ = ps.ps_succ and demanded = ps.ps_demanded in
  let frontier = ref [] in
  let touch u =
    if
      succ.(u) = []
      && Bytes.get demanded (2 * u) = '\000'
      && Bytes.get demanded ((2 * u) + 1) = '\000'
    then ps.ps_touched <- u :: ps.ps_touched
  in
  let demand u flavor =
    let i = (2 * u) + match flavor with As_producer -> 0 | As_consumer -> 1 in
    if Bytes.get demanded i = '\000' then begin
      touch u;
      Bytes.set demanded i '\001';
      frontier := (u, flavor) :: !frontier
    end
  in
  (* Duplicate adjacency entries are harmless for cycle existence, so
     edges need no dedup — only the demand expansion does. *)
  let add_edge src dst reason =
    touch src;
    succ.(src) <- dst :: succ.(src);
    demand dst
      (match reason with
      | Awaiting_token -> As_producer
      | Blocked_output -> As_consumer)
  in
  (* Seed with the blocked channels: every [valid && not ready] channel.
     A caller already maintaining that set (the {!Sanitizer} watchdog)
     passes it in; otherwise scan. *)
  (match stalled with
  | Some (cids, n) ->
      for i = 0 to n - 1 do
        let cid = cids.(i) in
        add_edge ps.ps_csrc.(cid) ps.ps_cdst.(cid) Blocked_output
      done
  | None ->
      Graph.iter_channels g (fun c ->
          let cid = c.Graph.id in
          if
            Engine.channel_valid sim cid
            && not (Engine.channel_ready sim cid)
          then
            add_edge c.Graph.src.Graph.unit_id c.Graph.dst.Graph.unit_id
              Blocked_output));
  Array.iter (fun uid -> demand uid As_producer) ps.ps_exits;
  let continue_ = ref true in
  while !continue_ do
    match !frontier with
    | [] -> continue_ := false
    | (u, flavor) :: rest ->
        frontier := rest;
        demanded_iter ~conservative:true sim g u flavor ~f:(fun cid reason ->
            let dst =
              match reason with
              | Awaiting_token -> ps.ps_csrc.(cid)
              | Blocked_output -> ps.ps_cdst.(cid)
            in
            add_edge u dst reason)
  done;
  (* Iterative DFS, white/grey/black: a grey hit is a back edge, i.e. a
     directed cycle (self-loops included). *)
  let color = ps.ps_color in
  let shade u c =
    if Bytes.get color u = '\000' then ps.ps_colored <- u :: ps.ps_colored;
    Bytes.set color u c
  in
  let cycle_found = ref false in
  List.iter
    (fun s ->
      if (not !cycle_found) && Bytes.get color s = '\000' && succ.(s) <> []
      then begin
        shade s '\001';
        let stk = ref [ (s, succ.(s)) ] in
        while (not !cycle_found) && !stk <> [] do
          match !stk with
          | [] -> ()
          | (u, next) :: rest -> (
              match next with
              | [] ->
                  shade u '\002';
                  stk := rest
              | v :: vs -> (
                  stk := (u, vs) :: rest;
                  match Bytes.get color v with
                  | '\000' ->
                      shade v '\001';
                      stk := (v, succ.(v)) :: !stk
                  | '\001' -> cycle_found := true
                  | _ -> ()))
        done
      end)
    ps.ps_touched;
  (* Reset the scratch by undoing only what this probe touched. *)
  List.iter
    (fun u ->
      succ.(u) <- [];
      Bytes.set demanded (2 * u) '\000';
      Bytes.set demanded ((2 * u) + 1) '\000')
    ps.ps_touched;
  List.iter (fun u -> Bytes.set color u '\000') ps.ps_colored;
  ps.ps_touched <- [];
  ps.ps_colored <- [];
  !cycle_found

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
