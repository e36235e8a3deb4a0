(** Always-on-able runtime monitors of the elastic protocol.  See the
    interface for the invariant catalogue; this file is organized as one
    [check_*] function per invariant family, driven from the engine's
    monitor hook at the two phase boundaries of every cycle.

    The monitors are incremental ledgers over the engine's flat signal
    arrays.  [init] compiles every monitored unit's channel ids into int
    arrays once; the per-cycle checks then read single bytes through the
    engine's allocation-free accessors, and the two formerly O(channels)
    scans — the transfer recount and the stalled-channel watchdog — are
    maintained from the engine's dirty channel set (the channels whose
    signals changed this cycle) instead of rescanning every channel.
    Verdicts are unchanged: each check raises the same violation, with
    the same message, at the same cycle as the full-rescan monitor —
    where detection order within a check could differ (the dirty set is
    in first-touch order), the incremental pass only detects and a full
    rescan in canonical order picks the violation to report. *)

open Dataflow
open Types

(** Consecutive valid-and-not-ready cycles on one channel before the
    wait-cycle probe runs.  The probe is sound at any threshold; this
    only sets how often it runs. *)
let stall_threshold = 8

type violation = {
  cycle : int;
  unit_label : string;
  invariant : string;
  detail : string;
}

exception Violation of violation

let pp_violation ppf v =
  Fmt.pf ppf "sanitizer: %s violated at cycle %d by %s: %s" v.invariant
    v.cycle v.unit_label v.detail

let () =
  Printexc.register_printer (function
    | Violation v -> Some (Fmt.str "%a" pp_violation v)
    | _ -> None)

let fail ~cycle ~unit_label ~invariant detail =
  raise (Violation { cycle; unit_label; invariant; detail })

(* ------------------------------------------------------------------ *)
(* Monitor state                                                       *)

(** Everything is precomputed from the graph on the first monitor call:
    per-unit channel ids as int arrays ([-1] marks an absent channel),
    so the per-cycle checks never touch the graph's record/option
    representation at all. *)
type state = {
  sim : Engine.t;
  g : Graph.t;
  chaos : bool;
  raw : Engine.raw;
      (** direct view of the engine's signal/state arrays — the hot
          loops below read it instead of paying an accessor call per
          signal *)
  (* joins, ascending uid *)
  j_uid : int array;
  j_in : int array array;
  j_out : int array;
  (* arbiters, ascending uid *)
  a_uid : int array;
  a_policy : arbiter_policy array;
  a_in : int array array;
  a_out0 : int array;
  a_out1 : int array;
  a_order : int array array;  (** priority order; [[||]] for other policies *)
  (* buffers, ascending uid *)
  b_uid : int array;
  b_slots : int array;
  b_in : int array;
  b_out : int array;
  (* credit counters, ascending uid *)
  c_uid : int array;
  c_init : int array;
  c_in : int array;
  c_out : int array;
  (* pipelined units, ascending uid *)
  p_uid : int array;
  p_depth : int array;
  p_in : int array;
  p_out : int array;
  eq1_pairs : (int * int * int * int) array;
      (** cc uid, cc init, ob uid, ob slots — wrapper pairs by label *)
  persistent_out : int array;
      (** output channels of units whose valid must persist until fired *)
  is_persistent : Bytes.t;  (** per cid: member of [persistent_out] *)
  (* shadow transfer ledger, maintained from the dirty set *)
  fired_flag : Bytes.t;     (** per cid: fired at the last fixpoint *)
  mutable fired_n : int;
  fired_list : int array;   (** the fired channels, unordered *)
  fired_pos : int array;    (** per cid: its index in [fired_list] *)
  mem_of : int array array;
      (** per cid: the family members (joins, arbiters, ...) the channel
          belongs to, encoded [(index lsl 3) lor tag] — the reverse index
          that lets a cycle's fired set name exactly the members whose
          invariant could have moved *)
  mutable swept : bool;
      (** the one-time full [After_step] sweep of every family has run
          (it convicts a circuit malformed from birth at the same cycle
          the full monitor would) *)
  (* per-cycle pre-transfer snapshot, captured at After_settle *)
  pre_occ : int array;      (** per uid *)
  pre_credit : int array;   (** per uid *)
  pre_busy : int array;     (** per uid *)
  (* previous-cycle unconsumed-token snapshot (valid-persistence) *)
  pend : bool array;        (** per cid: offered a token nobody took *)
  pend_data : value array;  (** per cid: the offered payload *)
  mutable have_prev : bool;
  (* stalled-channel watchdog: the currently-stalled set with, per
     member, the first cycle of its current stalled stretch (streak at
     cycle [n] is [n - start + 1]) *)
  stalled_flag : Bytes.t;   (** per cid: in the stalled set *)
  stall_start : int array;  (** per cid *)
  stalled_list : int array; (** the members, unordered *)
  stalled_pos : int array;  (** per cid: its index in [stalled_list] *)
  mutable stalled_n : int;
  mutable zero_fire : int;  (** consecutive cycles with no transfer *)
  mutable next_trigger : int;
      (** lower bound on the earliest cycle any stalled channel can
          reach the streak threshold: [min] over insertions of
          [start + threshold - 1], re-armed to [cycle + threshold]
          after a probe.  Member removals only delay the true earliest
          trigger, so the bound stays sound; once [cycle] reaches it,
          the exact minimum is recomputed by one scan.  Keeps the
          per-cycle watchdog bookkeeping O(1) off the trigger cadence
          instead of O(stalled). *)
  probe_scratch : Forensics.probe_scratch;
      (** reused by every watchdog probe of this simulation *)
  mutable probe_clean_memo : bool;
      (** the last watchdog probe came back clean and nothing it reads
          has changed since — see [probe_state_unchanged] *)
}

let string_has_prefix ~prefix s =
  String.length s > String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let strip_prefix ~prefix s =
  String.sub s (String.length prefix) (String.length s - String.length prefix)

let in_cid g uid p =
  match Graph.in_channel g uid p with
  | Some c -> c.Graph.id
  | None -> -1

let out_cid g uid p =
  match Graph.out_channel g uid p with
  | Some c -> c.Graph.id
  | None -> -1

let init sim =
  let g = Engine.graph_of sim in
  let n_units = max 1 g.Graph.n_units in
  let n_channels = max 1 g.Graph.n_channels in
  let joins = ref [] in
  let arbiters = ref [] in
  let buffers = ref [] in
  let credits = ref [] in
  let pipelines = ref [] in
  let persistent = ref [] in
  let cc_by_suffix = Hashtbl.create 7 in
  let ob_by_suffix = Hashtbl.create 7 in
  Graph.iter_units g (fun u ->
      let uid = u.Graph.uid in
      (match u.Graph.kind with
      | Join { inputs; _ } -> joins := (uid, inputs) :: !joins
      | Arbiter { inputs; policy } ->
          arbiters := (uid, inputs, policy) :: !arbiters
      | Buffer { slots; _ } -> buffers := (uid, slots) :: !buffers
      | Credit_counter { init } -> credits := (uid, init) :: !credits
      | _ -> ());
      (match Engine.pipeline_busy sim uid with
      | Some (_, depth) -> pipelines := (uid, depth) :: !pipelines
      | None -> ());
      (* Units whose output valid comes from registered internal state:
         once offered, a token cannot be retracted or replaced before a
         consumer takes it.  Combinational kinds (forks, joins, muxes,
         transparent buffers, ...) merely propagate, so their outputs
         legitimately follow whatever their inputs do. *)
      (match u.Graph.kind with
      | Entry _ | Buffer { transparent = false; _ } | Load _ | Store _
      | Credit_counter _ ->
          persistent := uid :: !persistent
      | Operator { latency; _ } when latency > 0 -> persistent := uid :: !persistent
      | _ -> ());
      (* Sharing-wrapper pairs are matched by the label convention of
         {!Crush.Wrapper}: cc_<op><i> guards ob_<op><i>. *)
      (match u.Graph.kind with
      | Credit_counter { init }
        when string_has_prefix ~prefix:"cc_" u.Graph.label ->
          Hashtbl.replace cc_by_suffix
            (strip_prefix ~prefix:"cc_" u.Graph.label)
            (uid, init)
      | Buffer { slots; _ } when string_has_prefix ~prefix:"ob_" u.Graph.label
        ->
          Hashtbl.replace ob_by_suffix
            (strip_prefix ~prefix:"ob_" u.Graph.label)
            (uid, slots)
      | _ -> ()));
  let eq1_pairs =
    Hashtbl.fold
      (fun sfx (cc, init) acc ->
        match Hashtbl.find_opt ob_by_suffix sfx with
        | Some (ob, slots) -> (cc, init, ob, slots) :: acc
        | None -> acc)
      cc_by_suffix []
    |> List.sort compare
  in
  let persistent_out =
    List.filter_map (fun uid -> match out_cid g uid 0 with -1 -> None | c -> Some c)
      !persistent
    |> List.sort compare
  in
  let is_persistent = Bytes.make n_channels '\000' in
  List.iter (fun cid -> Bytes.set is_persistent cid '\001') persistent_out;
  let joins = Array.of_list (List.sort compare !joins) in
  let arbiters = Array.of_list (List.sort compare !arbiters) in
  let buffers = Array.of_list (List.sort compare !buffers) in
  let credits = Array.of_list (List.sort compare !credits) in
  let pipelines = Array.of_list (List.sort compare !pipelines) in
  let j_in =
    Array.map
      (fun (uid, inputs) -> Array.init inputs (fun p -> in_cid g uid p))
      joins
  in
  let j_out = Array.map (fun (uid, _) -> out_cid g uid 0) joins in
  let a_in =
    Array.map
      (fun (uid, inputs, _) -> Array.init inputs (fun p -> in_cid g uid p))
      arbiters
  in
  let a_out0 = Array.map (fun (uid, _, _) -> out_cid g uid 0) arbiters in
  let a_out1 = Array.map (fun (uid, _, _) -> out_cid g uid 1) arbiters in
  let c_uid = Array.map fst credits in
  let c_in = Array.map (fun (uid, _) -> in_cid g uid 0) credits in
  let c_out = Array.map (fun (uid, _) -> out_cid g uid 0) credits in
  let b_in = Array.map (fun (uid, _) -> in_cid g uid 0) buffers in
  let b_out = Array.map (fun (uid, _) -> out_cid g uid 0) buffers in
  let p_in = Array.map (fun (uid, _) -> in_cid g uid 0) pipelines in
  let p_out = Array.map (fun (uid, _) -> out_cid g uid 0) pipelines in
  let eq1_pairs = Array.of_list eq1_pairs in
  (* Reverse index: channel -> the family members it can move. *)
  let mem = Array.make n_channels [] in
  let add tag idx cid =
    if cid >= 0 then mem.(cid) <- ((idx lsl 3) lor tag) :: mem.(cid)
  in
  Array.iteri (fun j ins -> Array.iter (add 0 j) ins) j_in;
  Array.iteri (fun j cid -> add 0 j cid) j_out;
  Array.iteri (fun a ins -> Array.iter (add 1 a) ins) a_in;
  Array.iteri (fun a cid -> add 1 a cid) a_out0;
  Array.iteri (fun a cid -> add 1 a cid) a_out1;
  Array.iteri (fun c cid -> add 2 c cid) c_in;
  Array.iteri (fun c cid -> add 2 c cid) c_out;
  Array.iteri (fun b cid -> add 3 b cid) b_in;
  Array.iteri (fun b cid -> add 3 b cid) b_out;
  Array.iteri (fun p cid -> add 4 p cid) p_in;
  Array.iteri (fun p cid -> add 4 p cid) p_out;
  Array.iteri
    (fun i (cc, _, _, _) ->
      Array.iteri
        (fun c uid ->
          if uid = cc then begin
            add 5 i c_in.(c);
            add 5 i c_out.(c)
          end)
        c_uid)
    eq1_pairs;
  {
    sim;
    g;
    chaos = Engine.has_chaos sim;
    raw = Engine.raw sim;
    j_uid = Array.map fst joins;
    j_in;
    j_out;
    a_uid = Array.map (fun (uid, _, _) -> uid) arbiters;
    a_policy = Array.map (fun (_, _, p) -> p) arbiters;
    a_in;
    a_out0;
    a_out1;
    a_order =
      Array.map
        (fun (_, _, policy) ->
          match policy with
          | Priority order -> Array.of_list order
          | Rotation _ | Phased _ -> [||])
        arbiters;
    b_uid = Array.map fst buffers;
    b_slots = Array.map snd buffers;
    b_in;
    b_out;
    c_uid;
    c_init = Array.map snd credits;
    c_in;
    c_out;
    p_uid = Array.map fst pipelines;
    p_depth = Array.map snd pipelines;
    p_in;
    p_out;
    eq1_pairs;
    persistent_out = Array.of_list persistent_out;
    is_persistent;
    fired_flag = Bytes.make n_channels '\000';
    fired_n = 0;
    fired_list = Array.make n_channels 0;
    fired_pos = Array.make n_channels 0;
    mem_of = Array.map Array.of_list mem;
    swept = false;
    pre_occ = Array.make n_units 0;
    pre_credit = Array.make n_units 0;
    pre_busy = Array.make n_units 0;
    pend = Array.make n_channels false;
    pend_data = Array.make n_channels VUnit;
    have_prev = false;
    stalled_flag = Bytes.make n_channels '\000';
    stall_start = Array.make n_channels 0;
    stalled_list = Array.make n_channels 0;
    stalled_pos = Array.make n_channels 0;
    stalled_n = 0;
    zero_fire = 0;
    next_trigger = max_int;
    probe_scratch = Forensics.probe_scratch sim;
    probe_clean_memo = false;
  }

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let label s uid = Graph.label_of s.g uid

let producer_label s cid =
  let c = Graph.channel_exn s.g cid in
  label s c.Graph.src.Graph.unit_id

(** Fired state of a channel by id from the shadow ledger; [-1] (no
    channel) reads as not fired, like the record monitor's [None]. *)
let lfired s cid = cid >= 0 && Bytes.get s.fired_flag cid <> '\000'

let lvalid s cid = cid >= 0 && Bytes.get s.raw.Engine.raw_valid cid <> '\000'

(* ------------------------------------------------------------------ *)
(* Ledger maintenance from the dirty set                               *)

(** Refresh the shadow transfer ledger and the stalled set.  With dirty
    tracking (a monitored run of the data-oriented engine) only the
    channels whose signals changed this cycle are touched; otherwise —
    any other engine driving this monitor — fall back to the full
    rescan, which keeps the monitor correct, just not cheap. *)
(* Fired/stalled membership maintenance for one channel whose signals
   may have changed, from its settled [valid]/[ready]. *)
let touch_signals s ~cycle cid ~valid ~ready =
  let fired = valid && ready in
  if fired <> (Bytes.get s.fired_flag cid <> '\000') then
      if fired then begin
        Bytes.set s.fired_flag cid '\001';
        s.fired_list.(s.fired_n) <- cid;
        s.fired_pos.(cid) <- s.fired_n;
        s.fired_n <- s.fired_n + 1
      end
      else begin
        Bytes.set s.fired_flag cid '\000';
        let i = s.fired_pos.(cid) in
        let last = s.fired_list.(s.fired_n - 1) in
        s.fired_list.(i) <- last;
        s.fired_pos.(last) <- i;
        s.fired_n <- s.fired_n - 1
      end;
    let stalled = valid && not ready in
    if stalled <> (Bytes.get s.stalled_flag cid <> '\000') then
      if stalled then begin
        Bytes.set s.stalled_flag cid '\001';
        s.stall_start.(cid) <- cycle;
        s.stalled_list.(s.stalled_n) <- cid;
        s.stalled_pos.(cid) <- s.stalled_n;
        s.stalled_n <- s.stalled_n + 1;
        let due = cycle + stall_threshold - 1 in
        if due < s.next_trigger then s.next_trigger <- due
      end
      else begin
        Bytes.set s.stalled_flag cid '\000';
        let i = s.stalled_pos.(cid) in
        let last = s.stalled_list.(s.stalled_n - 1) in
        s.stalled_list.(i) <- last;
        s.stalled_pos.(last) <- i;
        s.stalled_n <- s.stalled_n - 1
      end

(** Full-scan ledger refresh for the untracked (standalone-state) path;
    tracked runs use the fused {!settle_walk} instead. *)
let refresh_ledgers s ~cycle =
  let r = s.raw in
  Array.iter
    (fun cid ->
      let valid = Bytes.get r.Engine.raw_valid cid <> '\000' in
      let ready = Bytes.get r.Engine.raw_ready cid <> '\000' in
      touch_signals s ~cycle cid ~valid ~ready)
    (Engine.live_channel_ids s.sim)

(* ------------------------------------------------------------------ *)
(* After_settle checks: signals are final, state is pre-transfer       *)

(** The engine's incremental transfer counter against the monitor's own
    ledger (recounted from signal reads, full or dirty-driven). *)
let check_conservation s ~cycle =
  let engine_n = Engine.fired_count s.sim in
  if s.fired_n <> engine_n then
    fail ~cycle ~unit_label:"<engine>" ~invariant:"token-conservation"
      (Fmt.str
         "incremental transfer count says %d channel(s) fire this cycle, \
          an independent recount finds %d"
         engine_n s.fired_n)

(** A registered producer that offered a token nobody took must keep
    offering the same token.  The tracked path detects cheaply inside
    {!settle_walk} (only a dirty channel can have changed since its
    pending token was snapshot); on detection the canonical
    ascending-cid rescan below picks the violation to report, as the
    full monitor would. *)
let persistence_violated_at s cid =
  s.pend.(cid)
  && (Bytes.get s.raw.Engine.raw_valid cid = '\000'
     || compare s.raw.Engine.raw_data.(cid) s.pend_data.(cid) <> 0)

let report_persistence s ~cycle =
  let report cid =
    if not (Engine.channel_valid s.sim cid) then
      fail ~cycle ~unit_label:(producer_label s cid)
        ~invariant:"valid-persistence"
        (Fmt.str
           "retracted valid on channel %d before the pending token \
            (%s) was consumed"
           cid
           (value_to_string s.pend_data.(cid)))
    else
      fail ~cycle ~unit_label:(producer_label s cid)
        ~invariant:"valid-persistence"
        (Fmt.str
           "replaced the pending token on channel %d: offered %s, now \
            %s"
           cid
           (value_to_string s.pend_data.(cid))
           (value_to_string (Engine.channel_data s.sim cid)))
  in
  Array.iter
    (fun cid -> if persistence_violated_at s cid then report cid)
    s.persistent_out

let check_persistence s ~cycle =
  if s.have_prev then report_persistence s ~cycle

(** The tracked path's single pass over the cycle's dirty channels:
    fired/stalled ledger refresh, persistence detection, and the
    pending-token snapshot the next cycle diffs against, reading each
    channel's signals once.  Returns whether persistence was violated
    somewhere; the caller re-scans canonically to pick the report.
    Per-channel order matters: the violation test compares against the
    pend entry of the {e previous} cycle, so it runs before the snap —
    and once a violation is seen no further pend entry is refreshed,
    keeping the rescan's evidence intact (channels walked earlier were
    individually clean, so their refreshed entries cannot veto or
    invent a report). *)
let settle_walk s ~cycle =
  let r = s.raw in
  let persist_hit = ref false in
  for i = 0 to Engine.dirty_count s.sim - 1 do
    let cid = r.Engine.raw_dirty_list.(i) in
    let valid = Bytes.get r.Engine.raw_valid cid <> '\000' in
    let ready = Bytes.get r.Engine.raw_ready cid <> '\000' in
    touch_signals s ~cycle cid ~valid ~ready;
    if Bytes.get s.is_persistent cid <> '\000' then begin
      if
        s.have_prev
        && s.pend.(cid)
        && ((not valid)
           || compare r.Engine.raw_data.(cid) s.pend_data.(cid) <> 0)
      then persist_hit := true;
      if not !persist_hit then begin
        let pending = valid && not ready in
        s.pend.(cid) <- pending;
        if pending then s.pend_data.(cid) <- r.Engine.raw_data.(cid)
      end
    end
  done;
  !persist_hit

(** A join fires all inputs and its output together, or nothing. *)
let check_joins s ~cycle =
  Array.iteri
    (fun j uid ->
      let ins = s.j_in.(j) in
      let inputs = Array.length ins in
      let fired_in = ref 0 in
      for p = 0 to inputs - 1 do
        if lfired s ins.(p) then incr fired_in
      done;
      let out = lfired s s.j_out.(j) in
      if (out && !fired_in <> inputs) || ((not out) && !fired_in > 0) then
        fail ~cycle ~unit_label:(label s uid) ~invariant:"join-partial-fire"
          (Fmt.str
             "%d of %d input(s) fire while the output %s — a join must \
              consume all operands and emit in the same cycle"
             !fired_in inputs
             (if out then "fires" else "does not fire")))
    s.j_uid

(** An arbiter grants at most one request per cycle, both outputs fire
    together with the grant, and — without chaos — a priority arbiter
    serves the earliest valid request of its declared order. *)
let check_arbiters s ~cycle =
  Array.iteri
    (fun a uid ->
      let ins = s.a_in.(a) in
      let inputs = Array.length ins in
      let granted_n = ref 0 in
      let granted_p = ref (-1) in
      for p = inputs - 1 downto 0 do
        if lfired s ins.(p) then begin
          incr granted_n;
          granted_p := p
        end
      done;
      (* The granted-port list, ascending — only materialized for a
         violation message. *)
      let granted_list () =
        let acc = ref [] in
        for p = inputs - 1 downto 0 do
          if lfired s ins.(p) then acc := p :: !acc
        done;
        !acc
      in
      if !granted_n > 1 then
        fail ~cycle ~unit_label:(label s uid) ~invariant:"arbiter-one-hot"
          (Fmt.str "granted inputs %a in one cycle"
             Fmt.(list ~sep:comma int)
             (granted_list ()));
      let o0 = lfired s s.a_out0.(a) and o1 = lfired s s.a_out1.(a) in
      if o0 <> o1 || (!granted_n > 0 && not o0) || (!granted_n = 0 && o0) then
        fail ~cycle ~unit_label:(label s uid) ~invariant:"arbiter-output-sync"
          (Fmt.str
             "grant=%a but operand output %s and index output %s — the two \
              outputs must accompany every grant"
             Fmt.(list ~sep:comma int)
             (granted_list ())
             (if o0 then "fires" else "holds")
             (if o1 then "fires" else "holds"));
      if
        !granted_n = 1 && (not s.chaos)
        && Array.length s.a_order.(a) > 0
      then begin
        (* Walk the declared order down to the granted input; any valid
           earlier request convicts. *)
        let order = s.a_order.(a) in
        let n = Array.length order in
        let p = !granted_p in
        let rec earlier i =
          if i >= n - 1 then ()
          else
            let q = order.(i) in
            if q = p then ()
            else if lvalid s ins.(q) then
              fail ~cycle ~unit_label:(label s uid)
                ~invariant:"arbiter-priority-order"
                (Fmt.str
                   "granted input %d while higher-priority input %d was \
                    requesting"
                   p q)
            else earlier (i + 1)
        in
        earlier 0
      end)
    s.a_uid

(** A credit spent this cycle must come from the pre-cycle balance: a
    credit returned in cycle [t] is usable from [t+1] only. *)
let check_credit_grants s ~cycle =
  Array.iteri
    (fun c uid ->
      if lfired s s.c_out.(c) then begin
        let balance = Engine.credit_value s.sim uid in
        if balance <= 0 then
          fail ~cycle ~unit_label:(label s uid)
            ~invariant:"credit-same-cycle-return"
            (Fmt.str
               "granted a credit with a balance of %d — a return landing \
                this cycle must only become spendable next cycle"
               balance)
      end)
    s.c_uid

(** Stalled-channel watchdog.  Channels frozen at valid-and-not-ready
    for [stall_threshold] consecutive cycles — or any cycle in which no
    token moves at all — trigger a conservative forensics probe; a
    cyclic core in that probe is a deadlock already sustained, however
    much of the rest of the circuit is still moving.  A clean probe
    re-arms the watchdog.  The stalled set is maintained incrementally
    (see {!refresh_ledgers}); most triggers resolve through the cheap
    {!Forensics.probe_core_exists} and only a conviction pays for the
    full report. *)

(** Everything the wait-cycle probe reads is covered here: channel
    signals and payloads (any change lands in the dirty set), credit
    balances and arbiter turns (these only move when a channel fires),
    and pipeline occupancies (compared against last cycle's snapshot —
    the one probe input that can move without any signal changing, by a
    bubble shifting out of a pipeline).  When this holds, this cycle's
    wait-for graph is bit-identical to last cycle's, so a clean probe
    verdict carries over — the long no-transfer stretches that trigger
    the watchdog every cycle then pay for one probe, not hundreds. *)
let probe_state_unchanged s =
  Engine.dirty_tracking s.sim
  && Engine.dirty_count s.sim = 0
  && Engine.fired_count s.sim = 0
  && Array.for_all
       (fun uid -> Engine.pipeline_fill s.sim uid = s.pre_busy.(uid))
       s.p_uid

let check_wait_cycles s ~cycle =
  if not (probe_state_unchanged s) then s.probe_clean_memo <- false;
  let trigger = ref (Engine.fired_count s.sim = 0 && s.zero_fire > 0) in
  (* A streak can reach the threshold only once [cycle] catches up with
     [next_trigger] (a sound lower bound), so quiet cycles skip the
     stalled-set scan entirely; at the bound one scan recomputes the
     exact earliest due cycle (members that left the set since the
     bound was set can only have delayed it). *)
  if (not !trigger) && cycle >= s.next_trigger then begin
    let thr = stall_threshold in
    let due = ref max_int in
    for i = 0 to s.stalled_n - 1 do
      let d = s.stall_start.(s.stalled_list.(i)) + thr - 1 in
      if d < !due then due := d
    done;
    s.next_trigger <- !due;
    if cycle >= !due then trigger := true
  end;
  s.zero_fire <-
    (if Engine.fired_count s.sim = 0 then s.zero_fire + 1 else 0);
  if !trigger then begin
    let hit =
      (not s.probe_clean_memo)
      && Forensics.probe_core_exists ~scratch:s.probe_scratch
           ~stalled:(s.stalled_list, s.stalled_n)
           s.sim
    in
    if not hit then s.probe_clean_memo <- true;
    if hit then begin
      let r = Forensics.probe s.sim ~cycle in
      match r.Forensics.cores with
      | core :: _ ->
          let member_note (n : Forensics.note) =
            match n.Forensics.state with
            | Some st -> Fmt.str "%s [%s]" n.Forensics.label st
            | None -> n.Forensics.label
          in
          let head =
            match core.Forensics.notes with
            | n :: _ -> n.Forensics.label
            | [] -> "<core>"
          in
          fail ~cycle ~unit_label:head ~invariant:"deadlock-wait-cycle"
            (Fmt.str "sustained wait cycle through %a"
               Fmt.(list ~sep:(any " -> ") string)
               (List.map member_note core.Forensics.notes))
      | [] ->
          (* probe_core_exists and probe agree by construction; if they
             ever diverge, re-arming keeps the watchdog sound. *)
          for i = 0 to s.stalled_n - 1 do
            s.stall_start.(s.stalled_list.(i)) <- cycle + 1
          done;
          s.next_trigger <- cycle + stall_threshold
    end
    else begin
      (* Clean probe: re-arm.  Every member's streak restarts, as the
         full monitor's [Array.fill streak 0] does — a channel still
         stalled next cycle counts 1 again. *)
      for i = 0 to s.stalled_n - 1 do
        s.stall_start.(s.stalled_list.(i)) <- cycle + 1
      done;
      s.next_trigger <- cycle + stall_threshold
    end
  end

(** Full capture of the pre-transfer unit-state baselines the
    [After_step] checks diff against.  A tracked run does this once, to
    seed the ledgers [refresh_pre_hot] then maintains incrementally;
    the untracked path re-captures every cycle, as the record monitor
    did. *)
let capture_pre s =
  Array.iter
    (fun uid -> s.pre_occ.(uid) <- Engine.buffer_len s.sim uid)
    s.b_uid;
  Array.iter
    (fun uid -> s.pre_credit.(uid) <- Engine.credit_value s.sim uid)
    s.c_uid;
  Array.iter
    (fun uid -> s.pre_busy.(uid) <- Engine.pipeline_fill s.sim uid)
    s.p_uid

(** Untracked-path snapshot: the baselines plus the
    offered-but-unconsumed tokens the next cycle's persistence check
    compares with (the tracked path folds the pend snap into
    {!settle_walk}). *)
let snapshot s =
  capture_pre s;
  let r = s.raw in
  Array.iter
    (fun cid ->
      let pending =
        Bytes.get r.Engine.raw_valid cid <> '\000'
        && Bytes.get r.Engine.raw_ready cid = '\000'
      in
      s.pend.(cid) <- pending;
      if pending then s.pend_data.(cid) <- r.Engine.raw_data.(cid))
    s.persistent_out;
  s.have_prev <- true

(* ------------------------------------------------------------------ *)
(* After_step checks: state advanced, signals still show the transfers *)

(** Buffer occupancy obeys the exact per-cycle token ledger and never
    exceeds capacity. *)
let check_buffers s ~cycle =
  Array.iteri
    (fun b uid ->
      let occ = Engine.buffer_len s.sim uid in
      let slots = s.b_slots.(b) in
      if occ > slots then
        fail ~cycle ~unit_label:(label s uid) ~invariant:"buffer-overflow"
          (Fmt.str "%d token(s) in a %d-slot buffer" occ slots);
      let din = if lfired s s.b_in.(b) then 1 else 0 in
      let dout = if lfired s s.b_out.(b) then 1 else 0 in
      let expected = s.pre_occ.(uid) + din - dout in
      (* A transparent buffer bypasses an arriving token straight to a
         firing output, so in+out with an empty queue nets to zero —
         which the ledger equation already says. *)
      if occ <> expected then
        fail ~cycle ~unit_label:(label s uid)
          ~invariant:
            (if expected > occ then "buffer-underflow"
             else "buffer-overflow")
          (Fmt.str
             "occupancy %d after a cycle with %d in / %d out of %d — \
              expected %d"
             occ din dout s.pre_occ.(uid) expected))
    s.b_uid

(** Credits obey the exact ledger and stay within [0, init]: a balance
    above [init] means a credit was returned twice. *)
let check_credit_ledger s ~cycle =
  Array.iteri
    (fun c uid ->
      let balance = Engine.credit_value s.sim uid in
      let init = s.c_init.(c) in
      let dret = if lfired s s.c_in.(c) then 1 else 0 in
      let dgrant = if lfired s s.c_out.(c) then 1 else 0 in
      let expected = s.pre_credit.(uid) + dret - dgrant in
      if balance <> expected then
        fail ~cycle ~unit_label:(label s uid)
          ~invariant:"credit-conservation"
          (Fmt.str
             "balance %d after %d return(s) / %d grant(s) on %d — \
              expected %d"
             balance dret dgrant s.pre_credit.(uid) expected);
      if balance < 0 || balance > init then
        fail ~cycle ~unit_label:(label s uid)
          ~invariant:"credit-conservation"
          (Fmt.str
             "balance %d outside [0, %d] — %s"
             balance init
             (if balance > init then "a credit was returned twice"
              else "a grant was issued without a credit")))
    s.c_uid

(** Pipeline fill obeys the token ledger (all operand ports of a
    pipelined unit fire together, so port 0 stands for the intake). *)
let check_pipelines s ~cycle =
  Array.iteri
    (fun p uid ->
      let busy = Engine.pipeline_fill s.sim uid in
      let depth = s.p_depth.(p) in
      let din = if lfired s s.p_in.(p) then 1 else 0 in
      let dout = if lfired s s.p_out.(p) then 1 else 0 in
      let expected = s.pre_busy.(uid) + din - dout in
      if busy <> expected || busy > depth then
        fail ~cycle ~unit_label:(label s uid)
          ~invariant:"token-conservation"
          (Fmt.str
             "pipeline holds %d/%d token(s) after a cycle with %d in / \
              %d out of %d — expected %d"
             busy depth din dout s.pre_busy.(uid) expected))
    s.p_uid

(** The Eq. 1 sizing discipline, checked dynamically per wrapper pair:
    credits in flight (granted, not yet returned) may never outnumber
    the output-buffer slots guaranteed to receive their results.  The
    two credit-sizing faults of {!Crush.Faults} cross this line many
    cycles before the circuit wedges. *)
let check_eq1 s ~cycle =
  Array.iter
    (fun (cc, init, ob, slots) ->
      let in_flight = init - Engine.credit_value s.sim cc in
      if in_flight > slots then
        fail ~cycle ~unit_label:(label s cc)
          ~invariant:"eq1-credit-capacity"
          (Fmt.str
             "%d credit(s) in flight against %d slot(s) in %s — Eq. 1 \
              requires every circulating credit to have a guaranteed \
              landing slot"
             in_flight slots (label s ob)))
    s.eq1_pairs

(* ------------------------------------------------------------------ *)
(* Hot-member detection.  Every family invariant can only break on a
   member one of whose channels fired this cycle (the predicates below
   mirror the checks above verbatim), so on a tracked run each family
   scan is replaced by a walk of the fired set through the [mem_of]
   reverse index.  A hit re-runs the full family check, which rescans
   in canonical ascending-uid order and raises — the reported violation
   is the one the full monitor would pick, and the rescan only ever
   runs once (a violation aborts the run). *)

let join_violates s j =
  let ins = s.j_in.(j) in
  let inputs = Array.length ins in
  let fired_in = ref 0 in
  for p = 0 to inputs - 1 do
    if lfired s ins.(p) then incr fired_in
  done;
  let out = lfired s s.j_out.(j) in
  (out && !fired_in <> inputs) || ((not out) && !fired_in > 0)

let arbiter_violates s a =
  let ins = s.a_in.(a) in
  let inputs = Array.length ins in
  let granted_n = ref 0 in
  let granted_p = ref (-1) in
  for p = inputs - 1 downto 0 do
    if lfired s ins.(p) then begin
      incr granted_n;
      granted_p := p
    end
  done;
  let o0 = lfired s s.a_out0.(a) and o1 = lfired s s.a_out1.(a) in
  !granted_n > 1
  || o0 <> o1
  || (!granted_n > 0 && not o0)
  || (!granted_n = 0 && o0)
  || (!granted_n = 1 && (not s.chaos)
     && Array.length s.a_order.(a) > 0
     &&
     let order = s.a_order.(a) in
     let n = Array.length order in
     let p = !granted_p in
     let rec earlier i =
       if i >= n - 1 then false
       else
         let q = order.(i) in
         if q = p then false
         else if lvalid s ins.(q) then true
         else earlier (i + 1)
     in
     earlier 0)

let credit_grant_violates s c =
  lfired s s.c_out.(c) && s.raw.Engine.raw_credit.(s.c_uid.(c)) <= 0

let buffer_violates s b =
  let uid = s.b_uid.(b) in
  let occ = s.raw.Engine.raw_buf_len.(uid) in
  let din = if lfired s s.b_in.(b) then 1 else 0 in
  let dout = if lfired s s.b_out.(b) then 1 else 0 in
  occ > s.b_slots.(b) || occ <> s.pre_occ.(uid) + din - dout

let credit_ledger_violates s c =
  let uid = s.c_uid.(c) in
  let balance = s.raw.Engine.raw_credit.(uid) in
  let dret = if lfired s s.c_in.(c) then 1 else 0 in
  let dgrant = if lfired s s.c_out.(c) then 1 else 0 in
  balance <> s.pre_credit.(uid) + dret - dgrant
  || balance < 0
  || balance > s.c_init.(c)

let pipeline_violates s p =
  let uid = s.p_uid.(p) in
  let busy = Engine.pipeline_fill s.sim uid in
  let din = if lfired s s.p_in.(p) then 1 else 0 in
  let dout = if lfired s s.p_out.(p) then 1 else 0 in
  busy <> s.pre_busy.(uid) + din - dout || busy > s.p_depth.(p)

let eq1_violates s i =
  let cc, init, _, slots = s.eq1_pairs.(i) in
  init - s.raw.Engine.raw_credit.(cc) > slots

(** Does any family member of [tag] reachable from this cycle's fired
    set violate (per [pred])? *)
let any_hot s tag pred =
  let hit = ref false in
  let i = ref 0 in
  while (not !hit) && !i < s.fired_n do
    let ms = s.mem_of.(s.fired_list.(!i)) in
    let n = Array.length ms in
    let k = ref 0 in
    while (not !hit) && !k < n do
      let m = ms.(!k) in
      if m land 7 = tag && pred s (m lsr 3) then hit := true;
      incr k
    done;
    incr i
  done;
  !hit

(** Bring the pre-transfer baselines current after a cycle's transfers:
    occupancies, balances and fills only move on a member-port fire, so
    updating the fired set's members covers every change. *)
let refresh_pre_hot s =
  for i = 0 to s.fired_n - 1 do
    let ms = s.mem_of.(s.fired_list.(i)) in
    for k = 0 to Array.length ms - 1 do
      let m = ms.(k) in
      let idx = m lsr 3 in
      match m land 7 with
      | 3 ->
          let uid = s.b_uid.(idx) in
          s.pre_occ.(uid) <- s.raw.Engine.raw_buf_len.(uid)
      | 2 ->
          let uid = s.c_uid.(idx) in
          s.pre_credit.(uid) <- s.raw.Engine.raw_credit.(uid)
      | 4 ->
          let uid = s.p_uid.(idx) in
          s.pre_busy.(uid) <- Engine.pipeline_fill s.sim uid
      | _ -> ()
    done
  done

(* ------------------------------------------------------------------ *)
(* The monitor                                                         *)

let after_settle s ~cycle =
  if Engine.dirty_tracking s.sim then begin
    (* The walk needs the previous cycle's pend entries but seeds this
       cycle's, so the one-time baseline capture comes first (reading
       the same settled, pre-transfer state the end-of-settle capture
       of the untracked path sees). *)
    if not s.have_prev then capture_pre s;
    let persist_hit = settle_walk s ~cycle in
    check_conservation s ~cycle;
    if persist_hit then report_persistence s ~cycle;
    (* The three fired-pattern checks read nothing but fired flags, all
       false on a no-transfer cycle — skipping them there is exact. *)
    if Engine.fired_count s.sim > 0 then begin
      if any_hot s 0 join_violates then check_joins s ~cycle;
      if any_hot s 1 arbiter_violates then check_arbiters s ~cycle;
      if any_hot s 2 credit_grant_violates then check_credit_grants s ~cycle
    end;
    check_wait_cycles s ~cycle;
    s.have_prev <- true
  end
  else begin
    refresh_ledgers s ~cycle;
    check_conservation s ~cycle;
    check_persistence s ~cycle;
    if Engine.fired_count s.sim > 0 then begin
      check_joins s ~cycle;
      check_arbiters s ~cycle;
      check_credit_grants s ~cycle
    end;
    check_wait_cycles s ~cycle;
    snapshot s
  end

let after_step s ~cycle =
  let tracking = Engine.dirty_tracking s.sim in
  if not s.swept then begin
    (* One-time full sweep: a circuit malformed from birth (an
       occupancy or balance out of bounds before any transfer) is
       convicted at the same cycle the full monitor would convict it. *)
    s.swept <- true;
    check_buffers s ~cycle;
    check_credit_ledger s ~cycle;
    check_pipelines s ~cycle;
    check_eq1 s ~cycle;
    if tracking then refresh_pre_hot s
  end
  else if not tracking then begin
    check_buffers s ~cycle;
    check_credit_ledger s ~cycle;
    check_pipelines s ~cycle;
    check_eq1 s ~cycle
  end
  else if Engine.fired_count s.sim > 0 then begin
    (* On a no-transfer cycle every ledger delta is zero and unit state
       equals the settled snapshot, so each check would re-assert last
       cycle's equalities verbatim. *)
    if any_hot s 3 buffer_violates then check_buffers s ~cycle;
    if any_hot s 2 credit_ledger_violates then check_credit_ledger s ~cycle;
    if any_hot s 4 pipeline_violates then check_pipelines s ~cycle;
    if any_hot s 5 eq1_violates then check_eq1 s ~cycle;
    refresh_pre_hot s
  end

let monitor () =
  let st = ref None in
  fun sim ~cycle phase ->
    let s =
      match !st with
      | Some s -> s
      | None ->
          let s = init sim in
          st := Some s;
          s
    in
    match phase with
    | Engine.After_settle -> after_settle s ~cycle
    | Engine.After_step -> after_step s ~cycle
