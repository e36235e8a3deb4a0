(** Cycle-accurate simulator of synchronous elastic circuits.

    Every cycle has two phases, mirroring hardware:

    - a combinational phase computes the fixpoint of the valid/ready
      handshake signals (and data) on all channels, by worklist
      propagation: re-evaluating a unit when a signal on one of its
      channels changed;
    - a sequential phase transfers a token on every channel asserting both
      valid and ready, and advances the internal state of stateful units
      (FIFOs, pipelines, credit counters, arbiters, forks).

    The simulator reproduces the behaviours the paper depends on:
    head-of-line blocking in single-enable pipelined units (Section 3),
    credits that are returned one cycle late (Section 4.3), lazy forks on
    the credit return path, and priority vs rotation arbitration
    (Figures 1d/1e).  Deadlock is detected as quiescence without
    completion: the circuit is deterministic, so two event-free cycles
    imply no token can ever move again.

    Chaos mode ([run ~chaos]) perturbs the run with the adversarial but
    protocol-legal behaviours of {!Chaos}: transient ready-deassertion
    at sinks and exits, inflated pipeline depths, jittered memory-port
    grants and permuted priority-arbiter tie-breaks.  Perturbed runs are
    no longer deterministic cycle-to-cycle, so quiescence alone does not
    prove deadlock; when the circuit goes quiet the engine suspends all
    perturbations and only declares deadlock if the circuit stays quiet
    under the deterministic baseline semantics — the same notion of
    deadlock as an unperturbed run.

    {2 Execution image}

    [create] compiles the graph-of-records into a flat struct-of-arrays
    execution image: one int kind code per unit dispatched with a single
    integer match, [Bytes]-backed valid/ready/queued/requesting bitmaps,
    int-indexed channel endpoint tables (no [Graph.channel_exn] on the
    hot path), rotation/phased arbiter orders as int arrays, buffer
    FIFOs as preallocated rings, pipelines as parallel (value, presence)
    arrays, and per-load/store memory arrays resolved once.  The settle
    worklist is a preallocated int ring with a dedup bitmap — the same
    FIFO discipline as the previous [Queue.t]-based engine, so the
    evaluation order (and therefore every chaos decision stream) is
    bit-identical.  Run-transient scratch (worklist, dedup and dirty
    bitmaps, operand buffer) is pooled per domain and reused across
    sims, so steady-state simulation does not allocate on the hot path.

    When a [monitor] is attached the engine additionally tracks the
    dirty channel set — every channel whose valid/ready/data changed
    during the cycle's settle — which is what lets {!Sanitizer} update
    its ledgers incrementally instead of rescanning every channel every
    cycle. *)

open Dataflow
open Types

type status =
  | Completed of int   (** cycle of the last event *)
  | Deadlock of int    (** cycle at which the circuit wedged *)
  | Out_of_fuel of int (** the fuel budget that elapsed without quiescence *)

(* ------------------------------------------------------------------ *)
(* Observability: the per-cycle event sink                             *)

(** Why a channel presenting a token was refused this cycle.  The engine
    classifies each stalled channel from the consumer's own state, so the
    reasons stay faithful to the simulated microarchitecture rather than
    being reverse-engineered from the waveform afterwards. *)
type stall_reason =
  | Backpressure      (** consumer refuses and no finer cause applies *)
  | Pipeline_full     (** single-enable pipeline with a blocked head token *)
  | Contention
      (** the consumer lost this cycle's arbitration: a load/store without
          its memory-port grant, or a sharing-wrapper arbiter input that
          was not served *)
  | No_credit
      (** consumer is a join gated by a drained credit counter — the
          credit-stall the CRUSH wrapper is designed to make rare *)
  | Operand_starved   (** multi-input consumer waiting on a sibling input *)

let string_of_stall_reason = function
  | Backpressure -> "backpressure"
  | Pipeline_full -> "pipeline-full"
  | Contention -> "contention"
  | No_credit -> "no-credit"
  | Operand_starved -> "operand-starved"

(** One cycle-stamped observation from the transfer/settle loop.
    [E_transfer] and [E_stall] describe channels at the combinational
    fixpoint (the same instant the sanitizers see); [E_fire] marks a
    unit whose sequential state advanced; [E_credit] carries the grant
    ([delta = -1]) / return ([delta = +1]) traffic of a credit counter
    with the pre-transfer count; [E_grant] records which input an
    arbiter served. *)
type event =
  | E_fire of { cycle : int; uid : int }
  | E_transfer of { cycle : int; cid : int; data : value }
  | E_stall of { cycle : int; cid : int; reason : stall_reason }
  | E_credit of { cycle : int; uid : int; delta : int; count : int }
  | E_grant of { cycle : int; uid : int; port : int }

type sink = event -> unit

(** Raised by {!run} when the caller-provided [deadline] reports the
    job's wall-clock budget exhausted.  The deadline is polled
    cooperatively every {!deadline_poll_period} cycles, so for a
    deterministic deadline predicate (e.g. one that fires unconditionally)
    the interruption point — and therefore the carried cycle count — is
    itself deterministic. *)
exception Timeout of { cycles : int }

(** The deadline predicate is consulted once every this many cycles —
    rarely enough that the check stays off the hot path, often enough
    that a wedged-but-busy circuit is interrupted promptly. *)
let deadline_poll_period = 64

type stats = {
  status : status;
  cycles : int;             (** total simulated cycles until quiescence *)
  transfers : int;          (** total tokens moved across channels *)
  exit_values : value list; (** tokens received by Exit units *)
  perturbations : Chaos.counters;
      (** how often each chaos family bit; all zeros without chaos *)
}

(** One memory port (a load port or a store port of one array): the units
    competing for it, a round-robin pointer, and the per-unit request
    flags of the current cycle.  Each array offers one load port and one
    store port (dual-port BRAM); contention is resolved by round-robin
    arbitration that skips absent requests, so it cannot deadlock. *)
type port = {
  pid : int;                    (** port id, for chaos decision streams *)
  group : int array;            (** unit ids sharing this port *)
  mutable rr : int;             (** index of the next unit to favour *)
  mutable joff : int;           (** chaos jitter offset added to [rr] *)
}

(* ------------------------------------------------------------------ *)
(* Unit kind codes                                                     *)

(* The execution image dispatches units through one integer match per
   evaluation instead of pattern-matching [kind] * [unit_state] variant
   pairs.  The match arms below use the literals directly (so the
   compiler emits a jump table); keep these constants in sync. *)
let k_entry = 0
let k_exit = 1
let k_sink = 2
let k_const = 3
let k_fork_eager = 4
let k_fork_lazy = 5
let k_join = 6
let k_merge = 7
let k_arb_priority = 8
let k_arb_rotation = 9
let k_arb_phased = 10
let k_mux = 11
let k_branch = 12
let k_buffer = 13
let k_op_comb = 14
let k_op_pipe = 15
let k_load = 16
let k_store = 17
let k_credit = 18
let k_stub = 19

(* Bytes-backed bool vectors: one byte per flag, no bounds checks (all
   indices are compiled from the graph). *)
let bget b i = Bytes.unsafe_get b i <> '\000'
let bset b i v = Bytes.unsafe_set b i (if v then '\001' else '\000')

(* ------------------------------------------------------------------ *)
(* Per-domain arena                                                    *)

(** Run-transient buffers reused across sims on the same domain: the
    settle worklist ring and its dedup bitmap, the oscillation-debug
    ring, the operand scratch buffer, and the dirty-channel set.  None
    of these carry information across cycles that outlives the run, and
    none are read by the post-mortem accessors, so recycling them across
    engines is invisible — it just deletes the per-sim allocation storm
    that made [--jobs N] campaigns contend on the shared heap. *)
type arena = {
  mutable a_busy : bool;
  mutable a_wl : int array;
  mutable a_queued : Bytes.t;
  mutable a_recent : int array;
  mutable a_scratch : value array;
  mutable a_dirty_flag : Bytes.t;
  mutable a_dirty_list : int array;
}

let arena_key =
  Domain.DLS.new_key (fun () ->
      {
        a_busy = false;
        a_wl = [||];
        a_queued = Bytes.empty;
        a_recent = [||];
        a_scratch = [||];
        a_dirty_flag = Bytes.empty;
        a_dirty_list = [||];
      })

(** Capacity of the oscillation-debug ring: the settle loop records at
    most the last 40 evaluated units before declaring non-settlement. *)
let recent_cap = 48

type bufs = {
  b_wl : int array;
  b_queued : Bytes.t;
  b_recent : int array;
  b_scratch : value array;
  b_dirty_flag : Bytes.t;
  b_dirty_list : int array;
}

let fresh_bufs ~n_units ~n_channels ~n_scratch =
  {
    b_wl = Array.make (n_units + 1) 0;
    b_queued = Bytes.make n_units '\000';
    b_recent = Array.make recent_cap 0;
    b_scratch = Array.make n_scratch VUnit;
    b_dirty_flag = Bytes.make n_channels '\000';
    b_dirty_list = Array.make n_channels 0;
  }

(** Borrow the domain's arena (growing it to fit this graph), or fall
    back to fresh buffers if a run on this domain is already holding it
    (e.g. a reentrant run from a monitor).  The dedup and dirty bitmaps
    are cleared on acquisition — a finished run can leave stale bits. *)
let acquire_arena ~n_units ~n_channels ~n_scratch =
  let a = Domain.DLS.get arena_key in
  if a.a_busy then (None, fresh_bufs ~n_units ~n_channels ~n_scratch)
  else begin
    a.a_busy <- true;
    if Array.length a.a_wl < n_units + 1 then a.a_wl <- Array.make (n_units + 1) 0;
    if Bytes.length a.a_queued < n_units then a.a_queued <- Bytes.make n_units '\000'
    else Bytes.fill a.a_queued 0 (Bytes.length a.a_queued) '\000';
    if Array.length a.a_recent < recent_cap then a.a_recent <- Array.make recent_cap 0;
    if Array.length a.a_scratch < n_scratch then
      a.a_scratch <- Array.make n_scratch VUnit;
    if Bytes.length a.a_dirty_flag < n_channels then
      a.a_dirty_flag <- Bytes.make n_channels '\000'
    else Bytes.fill a.a_dirty_flag 0 (Bytes.length a.a_dirty_flag) '\000';
    if Array.length a.a_dirty_list < n_channels then
      a.a_dirty_list <- Array.make n_channels 0;
    ( Some a,
      {
        b_wl = a.a_wl;
        b_queued = a.a_queued;
        b_recent = a.a_recent;
        b_scratch = a.a_scratch;
        b_dirty_flag = a.a_dirty_flag;
        b_dirty_list = a.a_dirty_list;
      } )
  end

(* ------------------------------------------------------------------ *)
(* The execution image                                                 *)

type t = {
  g : Graph.t;
  memory : Memory.t;
  live_units : int array;
  step_units : int array;
      (** the active set of the sequential phase: units whose internal
          state can change between cycles (entries, exits, eager forks,
          buffers, pipelines, credit counters, stateful arbiters). *)
  live_cids : int array;  (** live channel ids, ascending *)
  (* channel signal state *)
  cvalid : Bytes.t;
  cready : Bytes.t;
  cdata : value array;
  (* channel topology, indexed by channel id (dead channels are -1) *)
  csrc : int array;
  cdst : int array;
  cdst_port : int array;
  iof : int array array;  (** per unit: input channel id per port *)
  oof : int array array;  (** per unit: output channel id per port *)
  (* unit dispatch and payloads, indexed by unit id *)
  kcode : int array;      (** kind code; -1 for dead units *)
  u_n : int array;        (** the kind's primary port/cluster count *)
  u_value : value array;  (** Entry/Const payload *)
  u_op : opcode array;
  entry_fired : Bytes.t;
  fork_sent : Bytes.t array;
  join_kept : int array array;  (** input indices with [keep] set *)
  buf_ring : value array array;
  buf_head : int array;
  buf_len : int array;
  buf_slots : int array;
  buf_high : int array;   (** max occupancy observed *)
  buf_transp : Bytes.t;
  pipe_val : value array array;  (** stage 0 = youngest *)
  pipe_has : Bytes.t array;
  credit : int array;
  rot_order : int array array;
  prio_list : int list array;
      (** original priority order, kept as a list: chaos permutation
          hashes over exactly this structure *)
  prio_arr : int array array;
  phased_cl : int array array array;
  phased_turns : int array array;
  arb_turn : int array;
  mem_name : string array;
  mem_arr : value array option array;
      (** per load/store: its memory's backing array, resolved once *)
  (* memory ports *)
  port_idx : int array;   (** per unit: index into [ports], -1 if none *)
  port_pos : int array;   (** per unit: its position in the port group *)
  ports : port array;
  requesting : Bytes.t;   (** per unit: requesting its port now *)
  step_active : Bytes.t;
      (** per unit: may have sequential work this cycle.  Set on every
          fired-state transition of an adjacent channel and whenever the
          unit's own step did work last cycle; a unit with no flag
          provably has nothing to do (see the step loop in {!run}). *)
  (* settle worklist: FIFO ring + dedup bitmap *)
  wl : int array;
  mutable wl_head : int;
  mutable wl_tail : int;
  queued : Bytes.t;
  recent : int array;
  scratch : value array;  (** operand buffer for {!Eval.apply_arr} *)
  (* dirty channel set: every channel whose signals changed this cycle *)
  mutable track_dirty : bool;
  dirty_flag : Bytes.t;
  dirty_list : int array;
  mutable dirty_n : int;
  (* run counters *)
  mutable n_fired : int;
      (** channels currently asserting both valid and ready — maintained
          incrementally on every handshake-signal flip so the per-cycle
          transfer count is O(1) instead of a scan over all channels *)
  n_exits : int;
  mutable n_exit_received : int;
  mutable exit_values : value list;
  mutable transfers : int;
  last_fire : int array;
  sink : sink option;
  chaos : Chaos.t option;
  chaos_stall : bool;
  chaos_jitter : bool;
  chaos_permute : bool;
  chaos_stalled : Bytes.t;
  chaos_sinks : int array;
  chaos_arbiters : int array;
  mutable chaos_suspended : bool;
  arena : arena option;   (** the domain arena to release at run end *)
}

let release_arena t =
  match t.arena with Some a -> a.a_busy <- false | None -> ()

(* [compare a b = 0] without the polymorphic-compare dispatch: tokens can
   legitimately carry NaN, and IEEE [nan <> nan] would report an eternal
   "change" in [drive_out], re-enqueueing the consumer until the settle
   budget dies — so floats compare via [Float.compare], exactly like the
   polymorphic [compare] this replaces. *)
let rec value_eq a b =
  a == b
  ||
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VFloat x, VFloat y -> Float.compare x y = 0
  | VBool x, VBool y -> x = y
  | VUnit, VUnit -> true
  | VTuple xs, VTuple ys -> value_list_eq xs ys
  | _ -> false

and value_list_eq xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs, y :: ys -> value_eq x y && value_list_eq xs ys
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The graph compiler                                                  *)

let create ?chaos ?memory ?sink g =
  Validate.check_exn g;
  let chaos = Option.map Chaos.make chaos in
  let memory = match memory with Some m -> m | None -> Memory.of_graph g in
  let n_units = g.Graph.n_units and n_chan = g.Graph.n_channels in
  let nu = max 1 n_units and nc = max 1 n_chan in
  let live = Graph.fold_units g (fun acc u -> u.Graph.uid :: acc) [] in
  let kcode = Array.make nu (-1) in
  let u_n = Array.make nu 0 in
  let u_value = Array.make nu VUnit in
  let u_op = Array.make nu Pass in
  let entry_fired = Bytes.make nu '\000' in
  let fork_sent = Array.make nu Bytes.empty in
  let join_kept = Array.make nu [||] in
  let buf_ring = Array.make nu [||] in
  let buf_head = Array.make nu 0 in
  let buf_len = Array.make nu 0 in
  let buf_slots = Array.make nu 0 in
  let buf_high = Array.make nu 0 in
  let buf_transp = Bytes.make nu '\000' in
  let pipe_val = Array.make nu [||] in
  let pipe_has = Array.make nu Bytes.empty in
  let credit = Array.make nu 0 in
  let rot_order = Array.make nu [||] in
  let prio_list = Array.make nu [] in
  let prio_arr = Array.make nu [||] in
  let phased_cl = Array.make nu [||] in
  let phased_turns = Array.make nu [||] in
  let arb_turn = Array.make nu 0 in
  let mem_name = Array.make nu "" in
  let mem_arr = Array.make nu None in
  let max_ports = ref 4 in
  Graph.iter_units g (fun u ->
      let uid = u.Graph.uid in
      (* [extra] adds chaos pipeline stages: an elastic circuit must
         tolerate any latency, so inflating a pipelined unit is a legal
         perturbation.  Drawn for every live unit (the chaos counters sum
         the draws, so the draw set must not depend on the unit's kind). *)
      let extra =
        match chaos with Some ch -> Chaos.extra_latency ch ~uid | None -> 0
      in
      match u.Graph.kind with
      | Entry v ->
          kcode.(uid) <- k_entry;
          u_value.(uid) <- v
      | Exit -> kcode.(uid) <- k_exit
      | Sink -> kcode.(uid) <- k_sink
      | Const v ->
          kcode.(uid) <- k_const;
          u_value.(uid) <- v
      | Fork { outputs; lazy_ = false } ->
          kcode.(uid) <- k_fork_eager;
          u_n.(uid) <- outputs;
          fork_sent.(uid) <- Bytes.make outputs '\000'
      | Fork { outputs; lazy_ = true } ->
          kcode.(uid) <- k_fork_lazy;
          u_n.(uid) <- outputs
      | Join { inputs; keep } ->
          kcode.(uid) <- k_join;
          u_n.(uid) <- inputs;
          let kept = ref [] in
          Array.iteri (fun i k -> if k then kept := i :: !kept) keep;
          join_kept.(uid) <- Array.of_list (List.rev !kept)
      | Merge { inputs } ->
          kcode.(uid) <- k_merge;
          u_n.(uid) <- inputs
      | Arbiter { inputs; policy } -> begin
          u_n.(uid) <- inputs;
          match policy with
          | Priority order ->
              kcode.(uid) <- k_arb_priority;
              prio_list.(uid) <- order;
              prio_arr.(uid) <- Array.of_list order
          | Rotation order ->
              kcode.(uid) <- k_arb_rotation;
              rot_order.(uid) <- Array.of_list order
          | Phased clusters ->
              kcode.(uid) <- k_arb_phased;
              phased_cl.(uid) <- Array.of_list (List.map Array.of_list clusters);
              phased_turns.(uid) <- Array.make (List.length clusters) 0
        end
      | Mux { inputs } ->
          kcode.(uid) <- k_mux;
          u_n.(uid) <- inputs
      | Branch { outputs } ->
          kcode.(uid) <- k_branch;
          u_n.(uid) <- outputs
      | Buffer { slots; transparent; init; _ } ->
          kcode.(uid) <- k_buffer;
          let n0 = List.length init in
          let ring = Array.make (max 1 (max slots n0)) VUnit in
          List.iteri (fun i v -> ring.(i) <- v) init;
          buf_ring.(uid) <- ring;
          buf_len.(uid) <- n0;
          buf_slots.(uid) <- slots;
          buf_high.(uid) <- n0;
          bset buf_transp uid transparent
      | Operator { op; latency = 0; ports } ->
          kcode.(uid) <- k_op_comb;
          u_n.(uid) <- ports;
          u_op.(uid) <- op;
          if ports > !max_ports then max_ports := ports
      | Operator { op; latency; ports } ->
          kcode.(uid) <- k_op_pipe;
          u_n.(uid) <- ports;
          u_op.(uid) <- op;
          let d = latency + extra in
          pipe_val.(uid) <- Array.make d VUnit;
          pipe_has.(uid) <- Bytes.make d '\000';
          if ports > !max_ports then max_ports := ports
      | Load { memory = name; latency } ->
          kcode.(uid) <- k_load;
          mem_name.(uid) <- name;
          let d = max 1 latency + extra in
          pipe_val.(uid) <- Array.make d VUnit;
          pipe_has.(uid) <- Bytes.make d '\000'
      | Store { memory = name } ->
          kcode.(uid) <- k_store;
          mem_name.(uid) <- name;
          pipe_val.(uid) <- Array.make 1 VUnit;
          pipe_has.(uid) <- Bytes.make 1 '\000'
      | Credit_counter { init } ->
          kcode.(uid) <- k_credit;
          credit.(uid) <- init
      | Stub -> kcode.(uid) <- k_stub);
  Array.iteri
    (fun uid k ->
      if k = k_load || k = k_store then
        mem_arr.(uid) <- Memory.backing memory mem_name.(uid))
    kcode;
  let csrc = Array.make nc (-1) in
  let cdst = Array.make nc (-1) in
  let cdst_port = Array.make nc 0 in
  let live_cids = ref [] in
  Graph.iter_channels g (fun c ->
      csrc.(c.Graph.id) <- c.Graph.src.unit_id;
      cdst.(c.Graph.id) <- c.Graph.dst.unit_id;
      cdst_port.(c.Graph.id) <- c.Graph.dst.port;
      live_cids := c.Graph.id :: !live_cids);
  let port_idx = Array.make nu (-1) in
  let port_pos = Array.make nu 0 in
  let groups : (string * bool, int list ref) Hashtbl.t = Hashtbl.create 7 in
  Graph.iter_units g (fun u ->
      let key =
        match u.Graph.kind with
        | Load { memory; _ } -> Some (memory, true)
        | Store { memory } -> Some (memory, false)
        | _ -> None
      in
      match key with
      | None -> ()
      | Some key ->
          let l =
            match Hashtbl.find_opt groups key with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace groups key l;
                l
          in
          l := u.Graph.uid :: !l);
  let ports = ref [] in
  let n_ports = ref 0 in
  Hashtbl.iter
    (fun _ l ->
      let group = Array.of_list (List.rev !l) in
      let p = { pid = !n_ports; group; rr = 0; joff = 0 } in
      incr n_ports;
      ports := p :: !ports;
      Array.iteri
        (fun i uid ->
          port_idx.(uid) <- p.pid;
          port_pos.(uid) <- i)
        group)
    groups;
  let chaos_sinks =
    Graph.fold_units g
      (fun acc u ->
        match u.Graph.kind with
        | Exit | Sink -> u.Graph.uid :: acc
        | _ -> acc)
      []
  in
  let chaos_arbiters =
    Graph.fold_units g
      (fun acc u ->
        match u.Graph.kind with
        | Arbiter { policy = Priority _; _ } -> u.Graph.uid :: acc
        | _ -> acc)
      []
  in
  (* The active set of the sequential phase: every unit whose [step_unit]
     can do work.  Exits are combinational in signal terms but record
     arriving tokens, so they belong to the set too. *)
  let step_units =
    Graph.fold_units g
      (fun acc u ->
        let k = kcode.(u.Graph.uid) in
        let steps =
          k = k_exit || k = k_entry || k = k_fork_eager || k = k_buffer
          || k = k_op_pipe || k = k_load || k = k_store || k = k_credit
          || k = k_arb_rotation || k = k_arb_phased
        in
        if steps then u.Graph.uid :: acc else acc)
      []
  in
  let n_exits =
    Graph.fold_units g (fun n u -> if u.Graph.kind = Exit then n + 1 else n) 0
  in
  let cfg = Option.map Chaos.config chaos in
  let chaos_on f = match cfg with Some c -> f c | None -> false in
  let arena, bufs =
    acquire_arena ~n_units:nu ~n_channels:nc ~n_scratch:!max_ports
  in
  {
    g;
    memory;
    live_units = Array.of_list (List.rev live);
    step_units = Array.of_list (List.rev step_units);
    live_cids = Array.of_list (List.rev !live_cids);
    cvalid = Bytes.make nc '\000';
    cready = Bytes.make nc '\000';
    cdata = Array.make nc VUnit;
    csrc;
    cdst;
    cdst_port;
    iof = g.Graph.in_of;
    oof = g.Graph.out_of;
    kcode;
    u_n;
    u_value;
    u_op;
    entry_fired;
    fork_sent;
    join_kept;
    buf_ring;
    buf_head;
    buf_len;
    buf_slots;
    buf_high;
    buf_transp;
    pipe_val;
    pipe_has;
    credit;
    rot_order;
    prio_list;
    prio_arr;
    phased_cl;
    phased_turns;
    arb_turn;
    mem_name;
    mem_arr;
    port_idx;
    port_pos;
    ports = Array.of_list (List.rev !ports);
    requesting = Bytes.make nu '\000';
    step_active = Bytes.make nu '\001';
    wl = bufs.b_wl;
    wl_head = 0;
    wl_tail = 0;
    queued = bufs.b_queued;
    recent = bufs.b_recent;
    scratch = bufs.b_scratch;
    track_dirty = false;
    dirty_flag = bufs.b_dirty_flag;
    dirty_list = bufs.b_dirty_list;
    dirty_n = 0;
    n_fired = 0;
    n_exits;
    n_exit_received = 0;
    exit_values = [];
    transfers = 0;
    last_fire = Array.make nu (-1);
    sink;
    chaos;
    chaos_stall =
      chaos_on (fun c -> c.Chaos.stall_prob > 0.0) && chaos_sinks <> [];
    chaos_jitter = chaos_on (fun c -> c.Chaos.jitter_ports) && !ports <> [];
    chaos_permute =
      chaos_on (fun c -> c.Chaos.permute_arbiters) && chaos_arbiters <> [];
    chaos_stalled = Bytes.make nu '\000';
    chaos_sinks = Array.of_list (List.rev chaos_sinks);
    chaos_arbiters = Array.of_list (List.rev chaos_arbiters);
    chaos_suspended = false;
    arena;
  }

(* ------------------------------------------------------------------ *)
(* Signal access helpers                                               *)

let in_cid t u p = Array.unsafe_get (Array.unsafe_get t.iof u) p
let out_cid t u p = Array.unsafe_get (Array.unsafe_get t.oof u) p

let in_valid t u p = bget t.cvalid (in_cid t u p)
let in_data t u p = Array.unsafe_get t.cdata (in_cid t u p)
let out_ready t u p = bget t.cready (out_cid t u p)

let enqueue t u =
  if u >= 0 && not (bget t.queued u) then begin
    bset t.queued u true;
    Array.unsafe_set t.wl t.wl_tail u;
    let tl = t.wl_tail + 1 in
    t.wl_tail <- (if tl >= Array.length t.wl then 0 else tl)
  end

let mark_dirty t cid =
  if not (bget t.dirty_flag cid) then begin
    bset t.dirty_flag cid true;
    Array.unsafe_set t.dirty_list t.dirty_n cid;
    t.dirty_n <- t.dirty_n + 1
  end

let clear_dirty t =
  for i = 0 to t.dirty_n - 1 do
    bset t.dirty_flag t.dirty_list.(i) false
  done;
  t.dirty_n <- 0

(** Drive valid/data on output port [p] of [u]; wake the consumer if the
    signal changed. *)
let drive_out t u p ~valid ~data =
  let cid = out_cid t u p in
  let ov = bget t.cvalid cid in
  let changed =
    ov <> valid
    || (valid && not (value_eq (Array.unsafe_get t.cdata cid) data))
  in
  if changed then begin
    let dst = Array.unsafe_get t.cdst cid in
    if ov <> valid && bget t.cready cid then begin
      t.n_fired <- (if valid then t.n_fired + 1 else t.n_fired - 1);
      bset t.step_active u true;
      bset t.step_active dst true
    end;
    bset t.cvalid cid valid;
    if valid then Array.unsafe_set t.cdata cid data;
    if t.track_dirty then mark_dirty t cid;
    enqueue t dst
  end

(** Drive ready on input port [p] of [u]; wake the producer on change. *)
let drive_ready t u p ready =
  let cid = in_cid t u p in
  if bget t.cready cid <> ready then begin
    let src = Array.unsafe_get t.csrc cid in
    if bget t.cvalid cid then begin
      t.n_fired <- (if ready then t.n_fired + 1 else t.n_fired - 1);
      bset t.step_active u true;
      bset t.step_active src true
    end;
    bset t.cready cid ready;
    if t.track_dirty then mark_dirty t cid;
    enqueue t src
  end

let index_of_selector n v =
  let i =
    match v with
    | VBool true -> 0
    | VBool false -> 1
    | VInt i -> i
    | v ->
        invalid_arg (Fmt.str "Engine: bad selector token %s" (value_to_string v))
  in
  if i < 0 || i >= n then
    invalid_arg (Fmt.str "Engine: selector %d out of range [0,%d)" i n)
  else i

(** Update the request flag of a memory-port client; when it changes, the
    whole port group is re-evaluated since the grant may move. *)
let enqueue_group t group =
  for i = 0 to Array.length group - 1 do
    enqueue t (Array.unsafe_get group i)
  done

let set_requesting t u req =
  if bget t.requesting u <> req then begin
    bset t.requesting u req;
    let pi = t.port_idx.(u) in
    if pi >= 0 then enqueue_group t t.ports.(pi).group
  end

(** Round-robin grant: [u] wins its port when no requesting sibling comes
    earlier in rotation order starting at the port's pointer. *)
let granted t u =
  let pi = t.port_idx.(u) in
  if pi < 0 then true
  else if not (bget t.requesting u) then false
  else begin
    let p = t.ports.(pi) in
    let n = Array.length p.group in
    (* [joff] is the chaos jitter: a pseudo-random per-cycle rotation
       of the grant pointer, a legal arbitration of the port. *)
    let base = p.rr + p.joff in
    let my = (t.port_pos.(u) - base + (2 * n)) mod n in
    let blocked = ref false in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get p.group i in
      if
        v <> u
        && bget t.requesting v
        && (t.port_pos.(v) - base + (2 * n)) mod n < my
      then blocked := true
    done;
    not !blocked
  end

let port_fired t u =
  let pi = t.port_idx.(u) in
  if pi >= 0 then begin
    let p = t.ports.(pi) in
    p.rr <- (t.port_pos.(u) + 1) mod Array.length p.group;
    (* The grant may move: re-evaluate every client next cycle. *)
    enqueue_group t p.group
  end

let all_inputs_valid t u n =
  let ok = ref true in
  for p = 0 to n - 1 do
    if not (in_valid t u p) then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Combinational semantics, one unit                                   *)

(* The two wrapper outputs (operands to the shared unit, index to the
   condition buffer) fire together: each is valid only when the sibling
   is ready.  [grant] is the granted input port, or -1 for none. *)
let arb_drive t u grant =
  let r0 = out_ready t u 0 and r1 = out_ready t u 1 in
  if grant >= 0 then begin
    drive_out t u 0 ~valid:r1 ~data:(in_data t u grant);
    drive_out t u 1 ~valid:r0 ~data:(Eval.vint grant)
  end
  else begin
    drive_out t u 0 ~valid:false ~data:VUnit;
    drive_out t u 1 ~valid:false ~data:VUnit
  end;
  let ok = grant >= 0 && r0 && r1 in
  for p = 0 to t.u_n.(u) - 1 do
    drive_ready t u p (ok && p = grant)
  done

let eval_unit t u =
  match Array.unsafe_get t.kcode u with
  | 0 (* entry *) ->
      drive_out t u 0
        ~valid:(not (bget t.entry_fired u))
        ~data:(Array.unsafe_get t.u_value u)
  | 1 | 2 (* exit, sink *) -> drive_ready t u 0 (not (bget t.chaos_stalled u))
  | 3 (* const *) ->
      drive_out t u 0 ~valid:(in_valid t u 0) ~data:(Array.unsafe_get t.u_value u);
      drive_ready t u 0 (out_ready t u 0)
  | 4 (* eager fork *) ->
      let outputs = t.u_n.(u) in
      let sent = t.fork_sent.(u) in
      let v = in_valid t u 0 and d = in_data t u 0 in
      let all_done = ref true in
      for p = 0 to outputs - 1 do
        let s = bget sent p in
        drive_out t u p ~valid:(v && not s) ~data:d;
        if not (s || out_ready t u p) then all_done := false
      done;
      drive_ready t u 0 (v && !all_done)
  | 5 (* lazy fork *) ->
      let outputs = t.u_n.(u) in
      let v = in_valid t u 0 and d = in_data t u 0 in
      let all = ref true in
      for p = 0 to outputs - 1 do
        if not (out_ready t u p) then all := false
      done;
      for p = 0 to outputs - 1 do
        (* out_p is valid when every sibling is ready: all-or-nothing. *)
        let siblings_ready = ref true in
        for q = 0 to outputs - 1 do
          if q <> p && not (out_ready t u q) then siblings_ready := false
        done;
        drive_out t u p ~valid:(v && !siblings_ready) ~data:d
      done;
      drive_ready t u 0 !all
  | 6 (* join *) ->
      let inputs = t.u_n.(u) in
      let all = all_inputs_valid t u inputs in
      (* The payload is only inspected on a valid output, so it is only
         built when every operand is present. *)
      let data =
        if not all then VUnit
        else
          let ki = t.join_kept.(u) in
          match Array.length ki with
          | 0 -> VUnit
          | 1 -> in_data t u ki.(0)
          | m ->
              let l = ref [] in
              for i = m - 1 downto 0 do
                l := in_data t u ki.(i) :: !l
              done;
              VTuple !l
      in
      drive_out t u 0 ~valid:all ~data;
      let fire = all && out_ready t u 0 in
      for p = 0 to inputs - 1 do
        drive_ready t u p fire
      done
  | 7 (* merge *) ->
      let inputs = t.u_n.(u) in
      let chosen = ref (-1) in
      for p = inputs - 1 downto 0 do
        if in_valid t u p then chosen := p
      done;
      let valid = !chosen >= 0 in
      let data = if valid then in_data t u !chosen else VUnit in
      drive_out t u 0 ~valid ~data;
      for p = 0 to inputs - 1 do
        drive_ready t u p (p = !chosen && out_ready t u 0)
      done
  | 8 (* priority arbiter *) ->
      (* Highest-priority requesting input wins; absent requests never
         block others (Section 4.2).  Under chaos the tie-break order is
         re-drawn every cycle: any requesting input may win, which is a
         legal work-conserving arbitration — credits must keep it
         deadlock-free. *)
      let grant = ref (-1) in
      (match t.chaos with
      | Some ch when not t.chaos_suspended ->
          let rest =
            ref (Chaos.permute_priority ch ~uid:u t.prio_list.(u))
          in
          while !rest != [] do
            match !rest with
            | p :: tl ->
                if in_valid t u p then begin
                  grant := p;
                  rest := []
                end
                else rest := tl
            | [] -> ()
          done
      | _ ->
          let order = t.prio_arr.(u) in
          let i = ref 0 in
          while !grant < 0 && !i < Array.length order do
            let p = Array.unsafe_get order !i in
            if in_valid t u p then grant := p;
            incr i
          done);
      arb_drive t u !grant
  | 9 (* rotation arbiter *) ->
      (* Strict total order: only the operation whose turn it is may
         proceed (deadlock-prone, Figure 1d). *)
      let order = t.rot_order.(u) in
      let p = order.(t.arb_turn.(u) mod Array.length order) in
      arb_drive t u (if in_valid t u p then p else -1)
  | 10 (* phased arbiter *) ->
      (* Priority across clusters, strict rotation within one: the
         In-order baseline on whole programs. *)
      let cls = t.phased_cl.(u) and turns = t.phased_turns.(u) in
      let grant = ref (-1) and i = ref 0 in
      while !grant < 0 && !i < Array.length cls do
        let cl = cls.(!i) in
        let p = cl.(turns.(!i) mod Array.length cl) in
        if in_valid t u p then grant := p;
        incr i
      done;
      arb_drive t u !grant
  | 11 (* mux *) ->
      let inputs = t.u_n.(u) in
      let sel_v = in_valid t u 0 in
      let idx = if sel_v then index_of_selector inputs (in_data t u 0) else -1 in
      let data_v = idx >= 0 && in_valid t u (1 + idx) in
      drive_out t u 0 ~valid:(sel_v && data_v)
        ~data:(if data_v then in_data t u (1 + idx) else VUnit);
      let fire = sel_v && data_v && out_ready t u 0 in
      drive_ready t u 0 fire;
      for p = 0 to inputs - 1 do
        drive_ready t u (1 + p) (fire && p = idx)
      done
  | 12 (* branch *) ->
      let outputs = t.u_n.(u) in
      let data_v = in_valid t u 0 and cond_v = in_valid t u 1 in
      let idx =
        if cond_v then index_of_selector outputs (in_data t u 1) else -1
      in
      for p = 0 to outputs - 1 do
        drive_out t u p ~valid:(data_v && cond_v && p = idx)
          ~data:(in_data t u 0)
      done;
      let fire = data_v && cond_v && idx >= 0 && out_ready t u idx in
      drive_ready t u 0 fire;
      drive_ready t u 1 fire
  | 13 (* buffer *) ->
      let len = t.buf_len.(u) and slots = t.buf_slots.(u) in
      if bget t.buf_transp u then begin
        let iv = in_valid t u 0 in
        let valid = len > 0 || iv in
        let data =
          if len > 0 then t.buf_ring.(u).(t.buf_head.(u)) else in_data t u 0
        in
        drive_out t u 0 ~valid ~data;
        drive_ready t u 0 (len < slots)
      end
      else begin
        drive_out t u 0 ~valid:(len > 0)
          ~data:(if len > 0 then t.buf_ring.(u).(t.buf_head.(u)) else VUnit);
        drive_ready t u 0 (len < slots)
      end
  | 14 (* combinational operator *) ->
      let ports = t.u_n.(u) in
      let all = all_inputs_valid t u ports in
      let data =
        if all then begin
          let sc = t.scratch in
          for p = 0 to ports - 1 do
            Array.unsafe_set sc p (in_data t u p)
          done;
          Eval.apply_arr t.u_op.(u) sc ports
        end
        else VUnit
      in
      drive_out t u 0 ~valid:all ~data;
      let fire = all && out_ready t u 0 in
      for p = 0 to ports - 1 do
        drive_ready t u p fire
      done
  | 15 (* pipelined operator *) ->
      (* Single-enable pipeline: if the head token cannot leave, the whole
         unit stalls and refuses new operands (head-of-line blocking). *)
      let ports = t.u_n.(u) in
      let has = t.pipe_has.(u) in
      let depth = Bytes.length has in
      let out_v = bget has (depth - 1) in
      drive_out t u 0 ~valid:out_v
        ~data:(if out_v then t.pipe_val.(u).(depth - 1) else VUnit);
      let can_advance = (not out_v) || out_ready t u 0 in
      let all = all_inputs_valid t u ports in
      for p = 0 to ports - 1 do
        drive_ready t u p (can_advance && all)
      done
  | 16 (* load *) ->
      let has = t.pipe_has.(u) in
      let depth = Bytes.length has in
      let out_v = bget has (depth - 1) in
      drive_out t u 0 ~valid:out_v
        ~data:(if out_v then t.pipe_val.(u).(depth - 1) else VUnit);
      let can_advance = (not out_v) || out_ready t u 0 in
      set_requesting t u (can_advance && in_valid t u 0);
      drive_ready t u 0 (can_advance && in_valid t u 0 && granted t u)
  | 17 (* store *) ->
      let has = t.pipe_has.(u) in
      let out_v = bget has 0 in
      drive_out t u 0 ~valid:out_v ~data:VUnit;
      let can_advance = (not out_v) || out_ready t u 0 in
      let all = all_inputs_valid t u 2 in
      set_requesting t u (can_advance && all);
      let ok = can_advance && all && granted t u in
      drive_ready t u 0 ok;
      drive_ready t u 1 ok
  | 18 (* credit counter *) ->
      drive_out t u 0 ~valid:(t.credit.(u) > 0) ~data:VUnit;
      drive_ready t u 0 true
  | 19 (* stub *) -> drive_out t u 0 ~valid:false ~data:VUnit
  | _ ->
      invalid_arg
        (Fmt.str "Engine: inconsistent state for unit %s" (Graph.label_of t.g u))

(** Run the combinational phase to fixpoint, starting from the units
    already in the work queue (incremental: signals persist between
    cycles, so only units whose sequential state changed — and whatever
    their signal changes reach — need re-evaluation).  Raises on
    oscillation. *)
let settle ?deadline ~cycle t =
  let budget = ref (50 + (200 * Array.length t.live_units)) in
  let n_recent = ref 0 in
  let evals = ref 0 in
  while t.wl_head <> t.wl_tail do
    decr budget;
    (* A pathological settle can churn for a long wall-clock time inside
       one cycle (the oscillation class), so the watchdog is also polled
       here — every 1024 evaluations, cheap enough to never matter on a
       healthy fixpoint. *)
    incr evals;
    (match deadline with
    | Some d when !evals land 1023 = 0 && d () ->
        raise (Timeout { cycles = cycle })
    | _ -> ());
    if !budget < 0 then begin
      let names = ref [] in
      for i = 0 to !n_recent - 1 do
        names := Graph.label_of t.g t.recent.(i) :: !names
      done;
      let names = List.sort_uniq String.compare !names in
      failwith
        (Fmt.str
           "Engine: combinational signals do not settle at cycle %d (cycling: %a)"
           cycle
           Fmt.(list ~sep:comma string)
           names)
    end;
    let u = Array.unsafe_get t.wl t.wl_head in
    let h = t.wl_head + 1 in
    t.wl_head <- (if h >= Array.length t.wl then 0 else h);
    bset t.queued u false;
    if !budget < 40 && !n_recent < Array.length t.recent then begin
      t.recent.(!n_recent) <- u;
      incr n_recent
    end;
    eval_unit t u
  done

(* ------------------------------------------------------------------ *)
(* Sequential phase                                                    *)

let fired t cid = cid >= 0 && bget t.cvalid cid && bget t.cready cid
let in_fired t u p = fired t (in_cid t u p)
let out_fired t u p = fired t (out_cid t u p)

(* Stage inequality matching the boxed [value option] comparison of the
   record engine: presence flips always count as movement, and two
   present stages compare with polymorphic [(<>)] — so identical-NaN
   payloads count as moved, exactly like [Some nan <> Some nan]. *)
let slot_neq h1 v1 h2 v2 = h1 <> h2 || (h1 && v1 <> v2)

(* Shift a single-enable pipeline by one stage; caller guarantees the
   head can advance and supplies the entering token (if any). *)
let step_pipe t u ~entering_has ~entering =
  let has = t.pipe_has.(u) and vals = t.pipe_val.(u) in
  let depth = Bytes.length has in
  let moved = ref (out_fired t u 0 || entering_has) in
  for s = depth - 1 downto 1 do
    let hs = bget has s and hp = bget has (s - 1) in
    if slot_neq hs vals.(s) hp vals.(s - 1) then moved := true;
    bset has s hp;
    vals.(s) <- vals.(s - 1)
  done;
  if slot_neq (bget has 0) vals.(0) entering_has entering then moved := true;
  bset has 0 entering_has;
  vals.(0) <- entering;
  !moved

let load_value t u addr =
  match t.mem_arr.(u) with
  | Some a ->
      let i =
        match addr with
        | VInt i -> i
        | v ->
            invalid_arg
              (Fmt.str "Memory: non-integer address %s" (value_to_string v))
      in
      if i < 0 || i >= Array.length a then
        invalid_arg
          (Fmt.str "Memory: %s[%d] out of bounds (size %d)" t.mem_name.(u) i
             (Array.length a))
      else Array.unsafe_get a i
  | None -> Memory.read t.memory t.mem_name.(u) addr

let store_value t u addr v =
  match t.mem_arr.(u) with
  | Some a ->
      let i =
        match addr with
        | VInt i -> i
        | v ->
            invalid_arg
              (Fmt.str "Memory: non-integer address %s" (value_to_string v))
      in
      if i < 0 || i >= Array.length a then
        invalid_arg
          (Fmt.str "Memory: %s[%d] out of bounds (size %d)" t.mem_name.(u) i
             (Array.length a))
      else Array.unsafe_set a i v
  | None -> Memory.write t.memory t.mem_name.(u) addr v

(** Advance the state of one unit after the transfers of this cycle.
    Returns [true] when the internal state changed (used for quiescence
    detection: pipeline bubbles moving without channel transfers). *)
let step_unit t u =
  match Array.unsafe_get t.kcode u with
  | 0 (* entry *) ->
      if out_fired t u 0 then begin
        bset t.entry_fired u true;
        true
      end
      else false
  | 1 (* exit *) ->
      if in_fired t u 0 then begin
        t.exit_values <- in_data t u 0 :: t.exit_values;
        t.n_exit_received <- t.n_exit_received + 1;
        true
      end
      else false
  | 4 (* eager fork *) ->
      let outputs = t.u_n.(u) in
      let sent = t.fork_sent.(u) in
      let consumed = in_fired t u 0 in
      let changed = ref consumed in
      for p = 0 to outputs - 1 do
        let s = bget sent p in
        let s' = if consumed then false else s || out_fired t u p in
        if s' <> s then changed := true;
        bset sent p s'
      done;
      !changed
  | 13 (* buffer *) ->
      let len = t.buf_len.(u) in
      let ofd = out_fired t u 0 in
      let popped = ofd && ((not (bget t.buf_transp u)) || len > 0) in
      let bypassed = ofd && not popped in
      if popped then begin
        let h = t.buf_head.(u) + 1 in
        t.buf_head.(u) <-
          (if h >= Array.length t.buf_ring.(u) then 0 else h);
        t.buf_len.(u) <- len - 1
      end;
      if in_fired t u 0 && not bypassed then begin
        let ring = t.buf_ring.(u) in
        let i = t.buf_head.(u) + t.buf_len.(u) in
        ring.(if i >= Array.length ring then i - Array.length ring else i) <-
          in_data t u 0;
        t.buf_len.(u) <- t.buf_len.(u) + 1
      end;
      if t.buf_len.(u) > t.buf_high.(u) then t.buf_high.(u) <- t.buf_len.(u);
      popped || bypassed || in_fired t u 0
  | 15 (* pipelined operator *) ->
      let has = t.pipe_has.(u) in
      let head_has = bget has (Bytes.length has - 1) in
      let can_advance = (not head_has) || out_fired t u 0 in
      if can_advance then begin
        let entering_has = in_fired t u 0 in
        let entering =
          if entering_has then begin
            let ports = t.u_n.(u) in
            let sc = t.scratch in
            for p = 0 to ports - 1 do
              Array.unsafe_set sc p (in_data t u p)
            done;
            Eval.apply_arr t.u_op.(u) sc ports
          end
          else VUnit
        in
        step_pipe t u ~entering_has ~entering
      end
      else false
  | 16 (* load *) ->
      let has = t.pipe_has.(u) in
      let head_has = bget has (Bytes.length has - 1) in
      let can_advance = (not head_has) || out_fired t u 0 in
      if can_advance then begin
        let entering_has = in_fired t u 0 in
        let entering =
          if entering_has then begin
            port_fired t u;
            load_value t u (in_data t u 0)
          end
          else VUnit
        in
        step_pipe t u ~entering_has ~entering
      end
      else false
  | 17 (* store *) ->
      let has = t.pipe_has.(u) in
      let head_has = bget has 0 in
      let can_advance = (not head_has) || out_fired t u 0 in
      if can_advance then begin
        let entering_has =
          if in_fired t u 0 then begin
            port_fired t u;
            store_value t u (in_data t u 0) (in_data t u 1);
            true
          end
          else false
        in
        let moved = head_has <> entering_has || out_fired t u 0 in
        bset has 0 entering_has;
        moved
      end
      else false
  | 18 (* credit counter *) ->
      let before = t.credit.(u) in
      let c = ref before in
      if out_fired t u 0 then decr c;
      if in_fired t u 0 then incr c;
      t.credit.(u) <- !c;
      !c <> before
  | 9 (* rotation arbiter *) ->
      let inputs = t.u_n.(u) in
      let granted = ref false in
      for p = 0 to inputs - 1 do
        if in_fired t u p then granted := true
      done;
      if !granted then begin
        t.arb_turn.(u) <-
          (t.arb_turn.(u) + 1) mod Array.length t.rot_order.(u);
        true
      end
      else false
  | 10 (* phased arbiter *) ->
      let inputs = t.u_n.(u) in
      let fired_port = ref (-1) in
      for p = 0 to inputs - 1 do
        if in_fired t u p then fired_port := p
      done;
      if !fired_port >= 0 then begin
        let cls = t.phased_cl.(u) and turns = t.phased_turns.(u) in
        for i = 0 to Array.length cls - 1 do
          let cl = cls.(i) in
          let mem = ref false in
          for k = 0 to Array.length cl - 1 do
            if cl.(k) = !fired_port then mem := true
          done;
          if !mem then turns.(i) <- (turns.(i) + 1) mod Array.length cl
        done;
        true
      end
      else false
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Top-level run loop                                                  *)

(** Channels currently presenting a token that the consumer refuses:
    diagnostic for deadlock reports. *)
let stalled_channels t =
  let acc = ref [] in
  Graph.iter_channels t.g (fun c ->
      if bget t.cvalid c.Graph.id && not (bget t.cready c.Graph.id) then
        acc := c.Graph.id :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Event emission (only on runs with an attached sink)                 *)

(** Why channel [cid] — valid but not ready at this cycle's fixpoint —
    is refused, judged from the consumer's own state.  Pure reads: no
    chaos stream is consulted (recomputing a permuted arbiter grant
    would double-count the chaos counters), so classification never
    perturbs the run it observes. *)
let classify_stall t cid =
  let dst = t.cdst.(cid) in
  match t.kcode.(dst) with
  | 15 (* pipelined operator *) ->
      let has = t.pipe_has.(dst) in
      if bget has (Bytes.length has - 1) && not (out_ready t dst 0) then
        Pipeline_full
      else if not (all_inputs_valid t dst t.u_n.(dst)) then Operand_starved
      else Backpressure
  | 16 (* load *) ->
      let has = t.pipe_has.(dst) in
      if bget has (Bytes.length has - 1) && not (out_ready t dst 0) then
        Pipeline_full
      else if bget t.requesting dst && not (granted t dst) then Contention
      else Backpressure
  | 17 (* store *) ->
      if bget t.pipe_has.(dst) 0 && not (out_ready t dst 0) then Pipeline_full
      else if not (all_inputs_valid t dst 2) then Operand_starved
      else if bget t.requesting dst && not (granted t dst) then Contention
      else Backpressure
  | 6 (* join *) ->
      let inputs = t.u_n.(dst) in
      if all_inputs_valid t dst inputs then Backpressure
      else begin
        (* A missing sibling fed by a drained credit counter is the
           credit stall of Section 4.3; any other missing sibling is
           ordinary operand starvation. *)
        let credit_starved = ref false in
        for p = 0 to inputs - 1 do
          if not (in_valid t dst p) then begin
            let sib = t.iof.(dst).(p) in
            if sib >= 0 then begin
              let src = t.csrc.(sib) in
              if t.kcode.(src) = 18 && t.credit.(src) = 0 then
                credit_starved := true
            end
          end
        done;
        if !credit_starved then No_credit else Operand_starved
      end
  | 8 | 9 | 10 (* arbiters *) ->
      (* If both wrapper outputs could accept, the only way to refuse a
         valid request is to serve (or reserve the turn for) another
         input. *)
      if out_ready t dst 0 && out_ready t dst 1 then Contention
      else Backpressure
  | 14 (* combinational operator *) ->
      if not (all_inputs_valid t dst t.u_n.(dst)) then Operand_starved
      else Backpressure
  | 11 | 12 (* mux, branch *) -> Operand_starved
  | _ -> Backpressure

(** Emit this cycle's channel-level events: one [E_transfer] per firing
    channel — enriched with [E_credit] at credit-counter endpoints and
    [E_grant] at arbiter inputs — and one [E_stall] per refused token.
    Runs at the combinational fixpoint, before the sequential phase, so
    credit counts are the pre-transfer values. *)
let emit_channel_events t ~cycle f =
  let cids = t.live_cids in
  for i = 0 to Array.length cids - 1 do
    let cid = cids.(i) in
    if bget t.cvalid cid then
      if bget t.cready cid then begin
        f (E_transfer { cycle; cid; data = t.cdata.(cid) });
        let src = t.csrc.(cid) and dst = t.cdst.(cid) in
        if t.kcode.(src) = k_credit then
          f (E_credit { cycle; uid = src; delta = -1; count = t.credit.(src) });
        if t.kcode.(dst) = k_credit then
          f (E_credit { cycle; uid = dst; delta = 1; count = t.credit.(dst) });
        let kd = t.kcode.(dst) in
        if kd = k_arb_priority || kd = k_arb_rotation || kd = k_arb_phased then
          f (E_grant { cycle; uid = dst; port = t.cdst_port.(cid) })
      end
      else f (E_stall { cycle; cid; reason = classify_stall t cid })
  done

(** Maximum occupancy a buffer reached during the run (its own initial
    tokens included); 0 for non-buffer units.  Profile data for the
    output-buffer shrinking pass (paper Section 6.4). *)
let buffer_high_water t uid = t.buf_high.(uid)

type outcome = { stats : stats; sim : t }

(** Phases at which a {!run} [monitor] is consulted.  [After_settle]
    fires once the combinational fixpoint is reached: handshake signals
    are final for the cycle but no sequential state has advanced — the
    monitor sees which channels are about to fire and the pre-transfer
    unit state.  [After_step] fires once the sequential phase completes:
    the monitor sees the post-transfer state and can check the
    conservation deltas of the cycle. *)
type monitor_phase = After_settle | After_step

(** Per-cycle chaos prologue.  Re-draws the sink stalls, port jitter and
    arbiter permutations for this cycle and wakes every unit whose
    signals they touch (the worklist only tracks channel changes, not
    chaos decisions).  When the circuit has been quiet for two cycles,
    withdraws all perturbations ([chaos_suspended]) so that continued
    quiescence proves deadlock under the deterministic baseline
    semantics rather than under a transient perturbation; the quiet
    counter restarts so two further benign cycles are required. *)
let chaos_prologue t ch ~cycle ~quiet =
  if !quiet >= 2 && not t.chaos_suspended then begin
    t.chaos_suspended <- true;
    quiet := 0
  end;
  Chaos.begin_cycle ch ~cycle;
  (* Each perturbation family is gated by a flag precomputed at [create]
     (config bit && the relevant units exist), so a run whose config
     disables a family — or a graph without sinks/ports/arbiters — pays
     nothing for it per cycle. *)
  if t.chaos_stall then
    Array.iter
      (fun u ->
        let s = (not t.chaos_suspended) && Chaos.stalled ch ~uid:u in
        if s <> bget t.chaos_stalled u then begin
          bset t.chaos_stalled u s;
          enqueue t u
        end)
      t.chaos_sinks;
  if t.chaos_jitter then
    Array.iter
      (fun p ->
        let off =
          if t.chaos_suspended then 0
          else Chaos.port_offset ch ~port:p.pid ~width:(Array.length p.group)
        in
        if off <> p.joff then begin
          p.joff <- off;
          enqueue_group t p.group
        end)
      t.ports;
  (* The tie-break permutation is a fresh function of the cycle, so
     every priority arbiter must be re-evaluated every cycle. *)
  if t.chaos_permute then enqueue_group t t.chaos_arbiters

(** Simulate an already-created execution image until quiescence or
    [max_cycles].  Shared verbatim between {!run} (create-then-run) and
    {!run_image} (instantiate-a-cached-template-then-run), so both paths
    are cycle-for-cycle the same simulation. *)
let run_created ?(max_cycles = 2_000_000) ?deadline ?monitor t =
  Fun.protect ~finally:(fun () -> release_arena t) @@ fun () ->
  (* The dirty channel set is only maintained for monitored runs: the
     sanitizers consume it, nothing else does. *)
  t.track_dirty <- monitor <> None;
  let monitor_call =
    match monitor with
    | None -> fun ~cycle:_ _ -> ()
    | Some f -> fun ~cycle phase -> f t ~cycle phase
  in
  let cycle = ref 0 in
  let quiet = ref 0 in
  let last_event = ref (-1) in
  let finished = ref None in
  enqueue_group t t.live_units;
  while !finished = None do
    (* Cooperative watchdog: poll the wall-clock budget every
       [deadline_poll_period] cycles (cycle 0 included, so a
       fire-immediately deadline interrupts deterministically before any
       work happens). *)
    (match deadline with
    | Some d when !cycle mod deadline_poll_period = 0 && d () ->
        raise (Timeout { cycles = !cycle })
    | _ -> ());
    if !cycle >= max_cycles then finished := Some (Out_of_fuel max_cycles)
    else begin
      if t.track_dirty && t.dirty_n > 0 then clear_dirty t;
      (match t.chaos with
      | Some ch -> chaos_prologue t ch ~cycle:!cycle ~quiet
      | None -> ());
      settle ?deadline ~cycle:!cycle t;
      monitor_call ~cycle:!cycle After_settle;
      (* Observability: channel-level events are derived at the settled
         fixpoint, exactly where the sanitizers read; runs without a
         sink pay one [None] branch per cycle. *)
      (match t.sink with
      | Some f -> emit_channel_events t ~cycle:!cycle f
      | None -> ());
      let moved_tokens = t.n_fired in
      t.transfers <- t.transfers + moved_tokens;
      let state_changed = ref false in
      (* Walk the stateful units in fixed order, but only step the
         flagged ones.  A unit is flagged by every fired-state transition
         of an adjacent channel and by its own step doing work (a
         pipeline shifting bubbles keeps itself flagged); a channel that
         stays fired across cycles keeps its endpoints live through the
         re-flag.  The one unflagged-but-adjacent-to-a-fired-channel case
         is a credit counter granting and receiving simultaneously in
         steady state — whose step is a no-op.  The walk order (not the
         flag set) defines exit-value and [E_fire] order, so the stream
         is identical to stepping every unit. *)
      let su = t.step_units in
      for i = 0 to Array.length su - 1 do
        let u = Array.unsafe_get su i in
        if bget t.step_active u then begin
          bset t.step_active u false;
          if step_unit t u then begin
            state_changed := true;
            bset t.step_active u true;
            t.last_fire.(u) <- !cycle;
            (match t.sink with
            | Some f -> f (E_fire { cycle = !cycle; uid = u })
            | None -> ());
            enqueue t u
          end
        end
      done;
      monitor_call ~cycle:!cycle After_step;
      if moved_tokens > 0 || !state_changed then begin
        quiet := 0;
        last_event := !cycle;
        (* Progress resumed: perturbations come back next prologue. *)
        t.chaos_suspended <- false
      end
      else incr quiet;
      if !quiet >= 2 && (t.chaos = None || t.chaos_suspended) then begin
        let done_ = t.n_exit_received >= t.n_exits && t.n_exits > 0 in
        finished :=
          Some (if done_ then Completed !last_event else Deadlock !cycle)
      end;
      incr cycle
    end
  done;
  let status = Option.get !finished in
  {
    stats =
      {
        status;
        cycles = (match status with Completed c -> c + 1 | _ -> !cycle);
        transfers = t.transfers;
        exit_values = List.rev t.exit_values;
        perturbations =
          (match t.chaos with
          | Some ch -> Chaos.counters ch
          | None -> Chaos.zero_counters);
      };
    sim = t;
  }

(** Simulate until quiescence or [max_cycles].  Completion means every
    Exit unit received at least one token before the circuit went quiet;
    quiescence without completion is a deadlock.  [chaos] perturbs the
    run adversarially (see {!Chaos}); a valid elastic circuit must
    produce the same exit values and still complete under any seed. *)
let run ?max_cycles ?deadline ?monitor ?chaos ?memory ?sink g =
  let t = create ?chaos ?memory ?sink g in
  run_created ?max_cycles ?deadline ?monitor t

(* ------------------------------------------------------------------ *)
(* Compiled execution images                                           *)

(* A pristine, reusable execution image: the output of [create] with the
   domain arena released (a cached image must not pin run-transient
   buffers) plus the scratch width needed to re-acquire one per run.
   The template is never simulated; [instantiate] clones the mutable run
   state and shares the immutable topology, so many concurrent runs (one
   per domain) can execute over one image. *)
type image = { i_tpl : t; i_scratch : int }

let image g =
  let t = create g in
  release_arena t;
  let max_ports =
    Graph.fold_units g
      (fun m u ->
        match u.Graph.kind with
        | Operator { ports; _ } -> max m ports
        | _ -> m)
      4
  in
  { i_tpl = t; i_scratch = max_ports }

let image_graph { i_tpl; _ } = i_tpl.g

(** Rough retained size: every per-unit and per-channel word of the
    struct-of-arrays image plus the buffer/pipeline token slots, at 8
    bytes a word, with a fixed overhead floor.  Used only to byte-bound
    caches — it must be stable and monotone in graph size, not exact. *)
let image_bytes { i_tpl = p; _ } =
  let nu = Array.length p.kcode and nc = Bytes.length p.cvalid in
  let slots = ref 0 in
  Array.iter (fun r -> slots := !slots + Array.length r) p.buf_ring;
  Array.iter (fun r -> slots := !slots + Array.length r) p.pipe_val;
  (8 * ((24 * nu) + (8 * nc) + (2 * !slots))) + 4096

(* Clone the mutable run state; share the immutable compiled topology.
   Field-by-field this mirrors the record built by [create]: anything
   [create] computes from the graph alone is shared, anything a run
   mutates is copied from the pristine template (initial buffer tokens
   and credits included), and the two environment-dependent pieces — the
   memory backing arrays and the domain arena buffers — are re-resolved
   fresh.  Chaos is deliberately absent: [create] bakes chaos extra
   latency into pipeline depths, so a perturbed run can never share a
   cached image. *)
let instantiate ?memory ?sink { i_tpl = p; i_scratch } =
  let g = p.g in
  let memory = match memory with Some m -> m | None -> Memory.of_graph g in
  let nu = Array.length p.kcode and nc = Bytes.length p.cvalid in
  let mem_arr = Array.make nu None in
  Array.iteri
    (fun uid k ->
      if k = k_load || k = k_store then
        mem_arr.(uid) <- Memory.backing memory p.mem_name.(uid))
    p.kcode;
  let arena, bufs =
    acquire_arena ~n_units:nu ~n_channels:nc ~n_scratch:i_scratch
  in
  {
    g;
    memory;
    live_units = p.live_units;
    step_units = p.step_units;
    live_cids = p.live_cids;
    cvalid = Bytes.make nc '\000';
    cready = Bytes.make nc '\000';
    cdata = Array.make nc VUnit;
    csrc = p.csrc;
    cdst = p.cdst;
    cdst_port = p.cdst_port;
    iof = p.iof;
    oof = p.oof;
    kcode = p.kcode;
    u_n = p.u_n;
    u_value = p.u_value;
    u_op = p.u_op;
    entry_fired = Bytes.make nu '\000';
    fork_sent = Array.map Bytes.copy p.fork_sent;
    join_kept = p.join_kept;
    buf_ring = Array.map Array.copy p.buf_ring;
    buf_head = Array.copy p.buf_head;
    buf_len = Array.copy p.buf_len;
    buf_slots = p.buf_slots;
    buf_high = Array.copy p.buf_high;
    buf_transp = p.buf_transp;
    pipe_val = Array.map Array.copy p.pipe_val;
    pipe_has = Array.map Bytes.copy p.pipe_has;
    credit = Array.copy p.credit;
    rot_order = p.rot_order;
    prio_list = p.prio_list;
    prio_arr = p.prio_arr;
    phased_cl = p.phased_cl;
    phased_turns = Array.map Array.copy p.phased_turns;
    arb_turn = Array.copy p.arb_turn;
    mem_name = p.mem_name;
    mem_arr;
    port_idx = p.port_idx;
    port_pos = p.port_pos;
    ports = Array.map (fun pr -> { pr with rr = 0; joff = 0 }) p.ports;
    requesting = Bytes.make nu '\000';
    step_active = Bytes.make nu '\001';
    wl = bufs.b_wl;
    wl_head = 0;
    wl_tail = 0;
    queued = bufs.b_queued;
    recent = bufs.b_recent;
    scratch = bufs.b_scratch;
    track_dirty = false;
    dirty_flag = bufs.b_dirty_flag;
    dirty_list = bufs.b_dirty_list;
    dirty_n = 0;
    n_fired = 0;
    n_exits = p.n_exits;
    n_exit_received = 0;
    exit_values = [];
    transfers = 0;
    last_fire = Array.make nu (-1);
    sink;
    chaos = None;
    chaos_stall = false;
    chaos_jitter = false;
    chaos_permute = false;
    chaos_stalled = Bytes.make nu '\000';
    chaos_sinks = p.chaos_sinks;
    chaos_arbiters = p.chaos_arbiters;
    chaos_suspended = false;
    arena;
  }

let run_image ?max_cycles ?deadline ?monitor ?memory ?sink img =
  let t = instantiate ?memory ?sink img in
  run_created ?max_cycles ?deadline ?monitor t

(* ------------------------------------------------------------------ *)
(* Post-mortem state accessors (for {!Forensics})                      *)

let graph_of t = t.g
let channel_valid t cid = bget t.cvalid cid
let channel_ready t cid = bget t.cready cid
let channel_data t cid = t.cdata.(cid)

type raw = {
  raw_valid : Bytes.t;
  raw_ready : Bytes.t;
  raw_data : value array;
  raw_credit : int array;
  raw_buf_len : int array;
  raw_pipe_has : Bytes.t array;
  raw_dirty_list : int array;
}

let raw t =
  {
    raw_valid = t.cvalid;
    raw_ready = t.cready;
    raw_data = t.cdata;
    raw_credit = t.credit;
    raw_buf_len = t.buf_len;
    raw_pipe_has = t.pipe_has;
    raw_dirty_list = t.dirty_list;
  }

(** The engine's incremental count of channels currently firing — what
    the per-cycle transfer accounting uses.  Sanitizers recount fired
    channels independently and compare against this. *)
let fired_count t = t.n_fired

(** Whether this run is chaos-perturbed (some checks — e.g. strict
    priority order — are only sound under deterministic semantics). *)
let has_chaos t = t.chaos <> None

(** Remaining credits of a credit counter, [None] for other units. *)
let credit_count t uid =
  if t.kcode.(uid) = k_credit then Some t.credit.(uid) else None

(** [(occupancy, slots)] of a buffer, [None] for other units. *)
let buffer_occupancy t uid =
  if t.kcode.(uid) = k_buffer then Some (t.buf_len.(uid), t.buf_slots.(uid))
  else None

(** Last cycle at which the unit's sequential state changed, [-1] if it
    never did. *)
let last_fire_cycle t uid = t.last_fire.(uid)

(** [(tokens in flight, depth)] of a pipelined unit, [None] otherwise. *)
let pipeline_busy t uid =
  let k = t.kcode.(uid) in
  if k = k_op_pipe || k = k_load || k = k_store then begin
    let has = t.pipe_has.(uid) in
    let n = ref 0 in
    for i = 0 to Bytes.length has - 1 do
      if bget has i then incr n
    done;
    Some (!n, Bytes.length has)
  end
  else None

(** For a rotation or phased arbiter: the input port holding the turn
    of cluster [i] (a rotation arbiter has the one cluster 0), the only
    port of that cluster whose request it would grant; [-1] for an
    empty or absent cluster and for every other unit. *)
let turn_holder t uid i =
  match t.kcode.(uid) with
  | 9 (* rotation *) ->
      let order = t.rot_order.(uid) in
      let n = Array.length order in
      if i <> 0 || n = 0 then -1 else order.(t.arb_turn.(uid) mod n)
  | 10 (* phased *) ->
      let cls = t.phased_cl.(uid) in
      if i < 0 || i >= Array.length cls then -1
      else
        let cl = cls.(i) in
        let n = Array.length cl in
        if n = 0 then -1 else cl.(t.phased_turns.(uid).(i) mod n)
  | _ -> -1

(* ------------------------------------------------------------------ *)
(* Incremental-monitor fast paths                                      *)

(** Number of channels whose valid/ready/data changed during this
    cycle's settle (valid between [After_settle] and the next cycle's
    settle, on a monitored run). *)
let dirty_count t = t.dirty_n

let pp_status ppf = function
  | Completed c -> Fmt.pf ppf "completed at cycle %d" c
  | Deadlock c -> Fmt.pf ppf "DEADLOCK at cycle %d" c
  | Out_of_fuel budget -> Fmt.pf ppf "out of fuel (budget %d)" budget

let is_deadlock outcome =
  match outcome.stats.status with Deadlock _ -> true | _ -> false

let is_completed outcome =
  match outcome.stats.status with Completed _ -> true | _ -> false
