(** Always-on-able runtime monitors of the elastic protocol.  See the
    interface for the invariant catalogue; this file is organized as one
    [check_*] function per invariant family, driven from the engine's
    monitor hook at the two phase boundaries of every cycle.

    The monitors are incremental ledgers over the engine's flat signal
    arrays.  [init] compiles every monitored unit's channel ids into int
    arrays once; the per-cycle checks then read single bytes through the
    engine's raw view.  The transfer recount and the stalled-channel
    watchdog are maintained from the engine's dirty channel set (the
    channels whose signals changed this cycle), and the family checks
    from the set of channels that fire, so no cycle rescans the circuit.
    Verdicts are those of a monitor that rescans every channel and every
    family member each cycle: each check raises the same violation, with
    the same message, at the same cycle — where detection order could
    differ (the dirty and fired sets are unordered), the incremental
    pass only detects and a rescan in canonical order picks the
    violation to report. *)

open Dataflow
open Types

(** Consecutive valid-and-not-ready cycles on one channel before the
    wait-cycle probe runs.  The probe is sound at any threshold; this
    only sets how often it runs. *)
let stall_threshold = 8

(* Per-channel signal states of the ledger. *)
let idle = '\000'
let fired = '\001'
let stalled = '\002'

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
  (* shadow transfer ledger and stalled set, maintained from the dirty
     set *)
  signal : Bytes.t;
      (** per cid at the last fixpoint: [idle], [fired] (valid and ready)
          or [stalled] (valid, not ready) *)
  mutable fired_n : int;
  fired_list : int array;   (** the fired channels, unordered *)
  fired_pos : int array;    (** per cid: its index in [fired_list] *)
  mem_of : int array array;
      (** per cid: the family members whose invariant the channel's
          firing can move, encoded [(index lsl 3) lor tag] — the reverse
          index that lets a cycle's fired set name exactly the members
          to check *)
  fam_size : int array;  (** per family tag: its member count *)
  fam_base : int array;
      (** per family tag: offset of its members in [seen] *)
  seen : int array;
      (** per family member: the walk generation that last reached it *)
  mutable gen : int;
  hot : int array;
      (** the members of the [After_step] families the last walk
          reached, each once *)
  mutable hot_n : int;
  mutable swept : bool;
      (** the one-time full [After_step] sweep of every family has run
          (it convicts a circuit malformed from birth at the same cycle
          the full monitor would) *)
  (* pre-transfer baselines: captured on the first monitored cycle,
     then refreshed after each step for the members the walk reached *)
  pre_occ : int array;      (** per uid *)
  pre_credit : int array;   (** per uid *)
  pre_busy : int array;     (** per uid *)
  post_busy : int array;
      (** per uid: the fill the step walk last read, which [refresh_pre]
          makes the next baseline *)
  (* previous-cycle unconsumed-token snapshot (valid-persistence) *)
  pend : bool array;        (** per cid: offered a token nobody took *)
  pend_data : value array;  (** per cid: the offered payload *)
  mutable have_prev : bool;
  (* stalled-channel watchdog: the currently-stalled set with, per
     member, the first cycle of its current stalled stretch (streak at
     cycle [n] is [n - start + 1]) *)
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
  (* Reverse index: channel -> the family members it can move, with the
     family tags of {!check_member}.  A credit grant can only break on a
     firing grant output. *)
  let mem = Array.make n_channels [] in
  let add tag idx cid =
    if cid >= 0 then mem.(cid) <- ((idx lsl 3) lor tag) :: mem.(cid)
  in
  Array.iteri (fun j ins -> Array.iter (add 0 j) ins) j_in;
  Array.iteri (fun j cid -> add 0 j cid) j_out;
  Array.iteri (fun a ins -> Array.iter (add 1 a) ins) a_in;
  Array.iteri (fun a cid -> add 1 a cid) a_out0;
  Array.iteri (fun a cid -> add 1 a cid) a_out1;
  Array.iteri (fun c cid -> add 2 c cid) c_out;
  Array.iteri (fun b cid -> add 3 b cid) b_in;
  Array.iteri (fun b cid -> add 3 b cid) b_out;
  Array.iteri (fun c cid -> add 4 c cid) c_in;
  Array.iteri (fun c cid -> add 4 c cid) c_out;
  Array.iteri (fun p cid -> add 5 p cid) p_in;
  Array.iteri (fun p cid -> add 5 p cid) p_out;
  Array.iteri
    (fun i (cc, _, _, _) ->
      Array.iteri
        (fun c uid ->
          if uid = cc then begin
            add 6 i c_in.(c);
            add 6 i c_out.(c)
          end)
        c_uid)
    eq1_pairs;
  let n_credits = Array.length c_uid in
  let fam_size =
    [|
      Array.length j_in;
      Array.length a_in;
      n_credits;
      Array.length b_in;
      n_credits;
      Array.length p_in;
      Array.length eq1_pairs;
    |]
  in
  let fam_base = Array.make 7 0 in
  for tag = 1 to 6 do
    fam_base.(tag) <- fam_base.(tag - 1) + fam_size.(tag - 1)
  done;
  let n_members = fam_base.(6) + fam_size.(6) in
  {
    sim;
    g;
    chaos = Engine.has_chaos sim;
    raw = Engine.raw sim;
    j_uid = Array.map fst joins;
    j_in;
    j_out;
    a_uid = Array.map (fun (uid, _, _) -> uid) arbiters;
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
    signal = Bytes.make n_channels idle;
    fired_n = 0;
    fired_list = Array.make n_channels 0;
    fired_pos = Array.make n_channels 0;
    mem_of = Array.map Array.of_list mem;
    fam_size;
    fam_base;
    seen = Array.make (max 1 n_members) 0;
    gen = 0;
    hot = Array.make (max 1 n_members) 0;
    hot_n = 0;
    swept = false;
    pre_occ = Array.make n_units 0;
    pre_credit = Array.make n_units 0;
    pre_busy = Array.make n_units 0;
    post_busy = Array.make n_units 0;
    pend = Array.make n_channels false;
    pend_data = Array.make n_channels VUnit;
    have_prev = false;
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
let lfired s cid = cid >= 0 && Bytes.unsafe_get s.signal cid = fired

let lvalid s cid = cid >= 0 && Bytes.get s.raw.Engine.raw_valid cid <> '\000'

(* ------------------------------------------------------------------ *)
(* Ledger maintenance from the dirty set                               *)

(* Tokens in flight in a pipelined unit, from the raw stage bytes. *)
let fill s uid =
  let has = Array.unsafe_get s.raw.Engine.raw_pipe_has uid in
  let n = ref 0 in
  for i = 0 to Bytes.length has - 1 do
    if Bytes.unsafe_get has i <> '\000' then incr n
  done;
  !n

(* Swap-remove set maintenance: the fired and stalled lists hold their
   members unordered, with each member's index in [*_pos].  All arrays
   are sized to the channel count and indexed by channel ids or by a
   set's own size, so the updates skip bounds checks. *)
let add_fired s cid =
  Array.unsafe_set s.fired_list s.fired_n cid;
  Array.unsafe_set s.fired_pos cid s.fired_n;
  s.fired_n <- s.fired_n + 1

let remove_fired s cid =
  let i = Array.unsafe_get s.fired_pos cid in
  let last = Array.unsafe_get s.fired_list (s.fired_n - 1) in
  Array.unsafe_set s.fired_list i last;
  Array.unsafe_set s.fired_pos last i;
  s.fired_n <- s.fired_n - 1

let add_stalled s ~cycle cid =
  Array.unsafe_set s.stall_start cid cycle;
  Array.unsafe_set s.stalled_list s.stalled_n cid;
  Array.unsafe_set s.stalled_pos cid s.stalled_n;
  s.stalled_n <- s.stalled_n + 1;
  let due = cycle + stall_threshold - 1 in
  if due < s.next_trigger then s.next_trigger <- due

let remove_stalled s cid =
  let i = Array.unsafe_get s.stalled_pos cid in
  let last = Array.unsafe_get s.stalled_list (s.stalled_n - 1) in
  Array.unsafe_set s.stalled_list i last;
  Array.unsafe_set s.stalled_pos last i;
  s.stalled_n <- s.stalled_n - 1

(* ------------------------------------------------------------------ *)
(* After_settle checks: signals are final, state is pre-transfer       *)

(** The engine's incremental transfer counter against the monitor's own
    ledger (recounted from the dirty channels' signal reads). *)
let check_conservation s ~cycle =
  let engine_n = Engine.fired_count s.sim in
  if s.fired_n <> engine_n then
    fail ~cycle ~unit_label:"<engine>" ~invariant:"token-conservation"
      (Fmt.str
         "incremental transfer count says %d channel(s) fire this cycle, \
          an independent recount finds %d"
         engine_n s.fired_n)

(** A registered producer that offered a token nobody took must keep
    offering the same token.  {!settle_walk} detects cheaply (only a
    dirty channel can have changed since its pending token was
    snapshot); on detection the canonical ascending-cid rescan below
    picks the violation to report, as the full monitor would. *)
let persistence_violated_at s cid =
  s.pend.(cid)
  && (Bytes.get s.raw.Engine.raw_valid cid = '\000'
     || not (Engine.value_eq s.raw.Engine.raw_data.(cid) s.pend_data.(cid)))

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

(** The single pass over the cycle's dirty channels:
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
    let cid = Array.unsafe_get r.Engine.raw_dirty_list i in
    let valid = Bytes.unsafe_get r.Engine.raw_valid cid <> '\000' in
    let ready = Bytes.unsafe_get r.Engine.raw_ready cid <> '\000' in
    let now = if not valid then idle else if ready then fired else stalled in
    let was = Bytes.unsafe_get s.signal cid in
    if now <> was then begin
      if was = fired then remove_fired s cid
      else if was = stalled then remove_stalled s cid;
      if now = fired then add_fired s cid
      else if now = stalled then add_stalled s ~cycle cid;
      Bytes.unsafe_set s.signal cid now
    end;
    if Bytes.unsafe_get s.is_persistent cid <> '\000' then begin
      if
        s.have_prev
        && s.pend.(cid)
        && ((not valid)
           || not (Engine.value_eq r.Engine.raw_data.(cid) s.pend_data.(cid)))
      then persist_hit := true;
      if not !persist_hit then begin
        let pending = valid && not ready in
        s.pend.(cid) <- pending;
        if pending then s.pend_data.(cid) <- r.Engine.raw_data.(cid)
      end
    end
  done;
  !persist_hit

(* Each family member has one check, which raises on the member's first
   broken invariant.  The fired-set walk below runs it as a detector on
   the members a cycle's transfers reach; a hit re-runs the whole family
   in canonical ascending-uid order ({!check_all}), so the reported
   violation is the one a full monitor would pick. *)

(** A join fires all inputs and its output together, or nothing. *)
let check_join s j ~cycle =
  let ins = s.j_in.(j) in
  let inputs = Array.length ins in
  let fired_in = ref 0 in
  for p = 0 to inputs - 1 do
    if lfired s ins.(p) then incr fired_in
  done;
  let out = lfired s s.j_out.(j) in
  if (out && !fired_in <> inputs) || ((not out) && !fired_in > 0) then
    fail ~cycle ~unit_label:(label s s.j_uid.(j)) ~invariant:"join-partial-fire"
      (Fmt.str
         "%d of %d input(s) fire while the output %s — a join must \
          consume all operands and emit in the same cycle"
         !fired_in inputs
         (if out then "fires" else "does not fire"))

(* The granted ports of an arbiter, ascending — only materialized for a
   violation message. *)
let granted_list s ins =
  let acc = ref [] in
  for p = Array.length ins - 1 downto 0 do
    if lfired s ins.(p) then acc := p :: !acc
  done;
  !acc

(** An arbiter grants at most one request per cycle, both outputs fire
    together with the grant, and — without chaos — a priority arbiter
    serves the earliest valid request of its declared order. *)
let check_arbiter s a ~cycle =
  let uid = s.a_uid.(a) and ins = s.a_in.(a) in
  let granted_n = ref 0 in
  let granted_p = ref (-1) in
  for p = Array.length ins - 1 downto 0 do
    if lfired s ins.(p) then begin
      incr granted_n;
      granted_p := p
    end
  done;
  if !granted_n > 1 then
    fail ~cycle ~unit_label:(label s uid) ~invariant:"arbiter-one-hot"
      (Fmt.str "granted inputs %a in one cycle"
         Fmt.(list ~sep:comma int)
         (granted_list s ins));
  let o0 = lfired s s.a_out0.(a) and o1 = lfired s s.a_out1.(a) in
  if o0 <> o1 || (!granted_n > 0 && not o0) || (!granted_n = 0 && o0) then
    fail ~cycle ~unit_label:(label s uid) ~invariant:"arbiter-output-sync"
      (Fmt.str
         "grant=%a but operand output %s and index output %s — the two \
          outputs must accompany every grant"
         Fmt.(list ~sep:comma int)
         (granted_list s ins)
         (if o0 then "fires" else "holds")
         (if o1 then "fires" else "holds"));
  let order = s.a_order.(a) in
  if !granted_n = 1 && (not s.chaos) && Array.length order > 0 then begin
    (* Walk the declared order down to the granted input; any valid
       earlier request convicts. *)
    let p = !granted_p in
    let i = ref 0 in
    while !i < Array.length order - 1 && order.(!i) <> p do
      let q = order.(!i) in
      if lvalid s ins.(q) then
        fail ~cycle ~unit_label:(label s uid)
          ~invariant:"arbiter-priority-order"
          (Fmt.str
             "granted input %d while higher-priority input %d was \
              requesting"
             p q);
      incr i
    done
  end

(** A credit spent this cycle must come from the pre-cycle balance: a
    credit returned in cycle [t] is usable from [t+1] only. *)
let check_grant s c ~cycle =
  if lfired s s.c_out.(c) then begin
    let uid = s.c_uid.(c) in
    let balance = s.raw.Engine.raw_credit.(uid) in
    if balance <= 0 then
      fail ~cycle ~unit_label:(label s uid)
        ~invariant:"credit-same-cycle-return"
        (Fmt.str
           "granted a credit with a balance of %d — a return landing \
            this cycle must only become spendable next cycle"
           balance)
  end

(** Stalled-channel watchdog.  Channels frozen at valid-and-not-ready
    for [stall_threshold] consecutive cycles — or any cycle in which no
    token moves at all — trigger a conservative forensics probe; a
    cyclic core in that probe is a deadlock already sustained, however
    much of the rest of the circuit is still moving.  A clean probe
    re-arms the watchdog.  The stalled set is maintained incrementally
    (see {!settle_walk}); most triggers resolve through the cheap
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
  Engine.dirty_count s.sim = 0
  && s.fired_n = 0
  &&
  let same = ref true and i = ref 0 in
  while !same && !i < Array.length s.p_uid do
    let uid = s.p_uid.(!i) in
    if fill s uid <> s.pre_busy.(uid) then same := false;
    incr i
  done;
  !same

let check_wait_cycles s ~cycle =
  if not (probe_state_unchanged s) then s.probe_clean_memo <- false;
  let trigger = ref (s.fired_n = 0 && s.zero_fire > 0) in
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
  s.zero_fire <- (if s.fired_n = 0 then s.zero_fire + 1 else 0);
  if !trigger then begin
    let hit =
      (not s.probe_clean_memo)
      && Forensics.probe_core_exists s.probe_scratch ~stalled:s.stalled_list
           ~n_stalled:s.stalled_n
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
    [After_step] checks diff against, once, on the first monitored
    cycle; {!after_step} then maintains them incrementally. *)
let capture_pre s =
  Array.iter
    (fun uid -> s.pre_occ.(uid) <- s.raw.Engine.raw_buf_len.(uid))
    s.b_uid;
  Array.iter
    (fun uid -> s.pre_credit.(uid) <- s.raw.Engine.raw_credit.(uid))
    s.c_uid;
  Array.iter
    (fun uid -> s.pre_busy.(uid) <- fill s uid)
    s.p_uid

(* ------------------------------------------------------------------ *)
(* After_step checks: state advanced, signals still show the transfers *)

(** Buffer occupancy obeys the exact per-cycle token ledger and never
    exceeds capacity. *)
let check_buffer s b ~cycle =
  let uid = s.b_uid.(b) in
  let occ = s.raw.Engine.raw_buf_len.(uid) in
  let slots = s.b_slots.(b) in
  if occ > slots then
    fail ~cycle ~unit_label:(label s uid) ~invariant:"buffer-overflow"
      (Fmt.str "%d token(s) in a %d-slot buffer" occ slots);
  let din = if lfired s s.b_in.(b) then 1 else 0 in
  let dout = if lfired s s.b_out.(b) then 1 else 0 in
  let expected = s.pre_occ.(uid) + din - dout in
  (* A transparent buffer bypasses an arriving token straight to a
     firing output, so in+out with an empty queue nets to zero — which
     the ledger equation already says. *)
  if occ <> expected then
    fail ~cycle ~unit_label:(label s uid)
      ~invariant:
        (if expected > occ then "buffer-underflow" else "buffer-overflow")
      (Fmt.str
         "occupancy %d after a cycle with %d in / %d out of %d — \
          expected %d"
         occ din dout s.pre_occ.(uid) expected)

(** Credits obey the exact ledger and stay within [0, init]: a balance
    above [init] means a credit was returned twice. *)
let check_credit s c ~cycle =
  let uid = s.c_uid.(c) in
  let balance = s.raw.Engine.raw_credit.(uid) in
  let init = s.c_init.(c) in
  let dret = if lfired s s.c_in.(c) then 1 else 0 in
  let dgrant = if lfired s s.c_out.(c) then 1 else 0 in
  let expected = s.pre_credit.(uid) + dret - dgrant in
  if balance <> expected then
    fail ~cycle ~unit_label:(label s uid) ~invariant:"credit-conservation"
      (Fmt.str
         "balance %d after %d return(s) / %d grant(s) on %d — \
          expected %d"
         balance dret dgrant s.pre_credit.(uid) expected);
  if balance < 0 || balance > init then
    fail ~cycle ~unit_label:(label s uid) ~invariant:"credit-conservation"
      (Fmt.str
         "balance %d outside [0, %d] — %s"
         balance init
         (if balance > init then "a credit was returned twice"
          else "a grant was issued without a credit"))

(** Pipeline fill obeys the token ledger (all operand ports of a
    pipelined unit fire together, so port 0 stands for the intake).
    Keeps the fill it read in [post_busy]. *)
let check_pipeline s p ~cycle =
  let uid = s.p_uid.(p) in
  let busy = fill s uid in
  s.post_busy.(uid) <- busy;
  let depth = s.p_depth.(p) in
  let din = if lfired s s.p_in.(p) then 1 else 0 in
  let dout = if lfired s s.p_out.(p) then 1 else 0 in
  let expected = s.pre_busy.(uid) + din - dout in
  if busy <> expected || busy > depth then
    fail ~cycle ~unit_label:(label s uid) ~invariant:"token-conservation"
      (Fmt.str
         "pipeline holds %d/%d token(s) after a cycle with %d in / \
          %d out of %d — expected %d"
         busy depth din dout s.pre_busy.(uid) expected)

(** The Eq. 1 sizing discipline, checked dynamically per wrapper pair:
    credits in flight (granted, not yet returned) may never outnumber
    the output-buffer slots guaranteed to receive their results.  The
    two credit-sizing faults of {!Crush.Faults} cross this line many
    cycles before the circuit wedges. *)
let check_eq1 s i ~cycle =
  let cc, init, ob, slots = s.eq1_pairs.(i) in
  let in_flight = init - s.raw.Engine.raw_credit.(cc) in
  if in_flight > slots then
    fail ~cycle ~unit_label:(label s cc) ~invariant:"eq1-credit-capacity"
      (Fmt.str
         "%d credit(s) in flight against %d slot(s) in %s — Eq. 1 \
          requires every circulating credit to have a guaranteed \
          landing slot"
         in_flight slots (label s ob))

(* Family tags, as encoded in [mem_of], in the order a full monitor
   checks the families: three at [After_settle] (joins, arbiters, credit
   grants), four at [After_step] (buffers, credit ledgers, pipelines,
   Eq. 1 pairs). *)
let t_join = 0
let t_arbiter = 1
let t_grant = 2
let t_buffer = 3
let t_credit = 4
let t_pipeline = 5
let t_eq1 = 6

let check_member s tag idx ~cycle =
  if tag = t_join then check_join s idx ~cycle
  else if tag = t_arbiter then check_arbiter s idx ~cycle
  else if tag = t_grant then check_grant s idx ~cycle
  else if tag = t_buffer then check_buffer s idx ~cycle
  else if tag = t_credit then check_credit s idx ~cycle
  else if tag = t_pipeline then check_pipeline s idx ~cycle
  else check_eq1 s idx ~cycle

(* Whether [check_member] raises, as bit [tag] of the result. *)
let hit s tag idx ~cycle =
  match check_member s tag idx ~cycle with
  | () -> 0
  | exception Violation _ -> 1 lsl tag

(** The canonical rescan: every member of each family in [hits], in
    ascending-uid order, families in tag order; raises the first
    violation. *)
let check_all s hits ~cycle =
  for tag = t_join to t_eq1 do
    if hits land (1 lsl tag) <> 0 then
      for idx = 0 to s.fam_size.(tag) - 1 do
        check_member s tag idx ~cycle
      done
  done

(** The cycle's one walk of the fired set, at [After_settle]: checks
    each [After_settle] family member it reaches once and keeps each
    [After_step] member it reaches in [hot], once, for {!step_hits}.
    Returns the tags of the families with a violating member as a bit
    set. *)
let walk_fired s ~cycle =
  s.gen <- s.gen + 1;
  s.hot_n <- 0;
  let gen = s.gen and hits = ref 0 in
  for i = 0 to s.fired_n - 1 do
    let ms = Array.unsafe_get s.mem_of (Array.unsafe_get s.fired_list i) in
    for k = 0 to Array.length ms - 1 do
      let m = Array.unsafe_get ms k in
      let tag = m land 7 and idx = m lsr 3 in
      let d = Array.unsafe_get s.fam_base tag + idx in
      if Array.unsafe_get s.seen d <> gen then begin
        Array.unsafe_set s.seen d gen;
        if tag <= t_grant then hits := !hits lor hit s tag idx ~cycle
        else begin
          Array.unsafe_set s.hot s.hot_n m;
          s.hot_n <- s.hot_n + 1
        end
      end
    done
  done;
  !hits

(** The [After_step] checks of the members the walk kept, as a bit set
    of the families with a violating member. *)
let step_hits s ~cycle =
  let hits = ref 0 in
  for i = 0 to s.hot_n - 1 do
    let m = Array.unsafe_get s.hot i in
    hits := !hits lor hit s (m land 7) (m lsr 3) ~cycle
  done;
  !hits

(** Bring the pre-transfer baselines current after a cycle's transfers:
    occupancies, balances and fills only move on a member-port fire, so
    the members the walk reached cover every change. *)
let refresh_pre s =
  for i = 0 to s.hot_n - 1 do
    let m = s.hot.(i) in
    let tag = m land 7 and idx = m lsr 3 in
    if tag = t_buffer then begin
      let uid = s.b_uid.(idx) in
      s.pre_occ.(uid) <- s.raw.Engine.raw_buf_len.(uid)
    end
    else if tag = t_credit then begin
      let uid = s.c_uid.(idx) in
      s.pre_credit.(uid) <- s.raw.Engine.raw_credit.(uid)
    end
    else if tag = t_pipeline then begin
      let uid = s.p_uid.(idx) in
      s.pre_busy.(uid) <- s.post_busy.(uid)
    end
  done

(* ------------------------------------------------------------------ *)
(* The monitor                                                         *)

let after_settle s ~cycle =
  (* The walk needs the previous cycle's pend entries but seeds this
     cycle's, so the one-time baseline capture comes first (reading the
     settled, pre-transfer state). *)
  if not s.have_prev then capture_pre s;
  let persist_hit = settle_walk s ~cycle in
  check_conservation s ~cycle;
  if persist_hit then report_persistence s ~cycle;
  (* From here on the ledger's fired count is the engine's (checked
     above).  The three fired-pattern checks read nothing but fired
     flags, all false on a no-transfer cycle — skipping them there is
     exact. *)
  if s.fired_n > 0 then begin
    let hits = walk_fired s ~cycle in
    if hits <> 0 then check_all s hits ~cycle
  end;
  check_wait_cycles s ~cycle;
  s.have_prev <- true

let after_step s ~cycle =
  if not s.swept then begin
    (* One-time full sweep: a circuit malformed from birth (an
       occupancy or balance out of bounds before any transfer) is
       convicted at the same cycle the full monitor would convict it. *)
    s.swept <- true;
    check_all s
      ((1 lsl t_buffer) lor (1 lsl t_credit) lor (1 lsl t_pipeline)
     lor (1 lsl t_eq1))
      ~cycle
  end;
  (* On a no-transfer cycle every ledger delta is zero and unit state
     equals the settled snapshot, so each check would re-assert last
     cycle's equalities verbatim. *)
  if s.fired_n > 0 then begin
    let hits = step_hits s ~cycle in
    if hits <> 0 then check_all s hits ~cycle;
    refresh_pre s
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
