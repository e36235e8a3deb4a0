(** Construction of the credit-based sharing wrapper (Section 4.3,
    Figure 3 of the paper).

    For a group G = {op_1 .. op_n} implemented by one shared unit:

    - a credit counter CC_i holds op_i's initial credits (dataless
      tokens); a join Join_i synchronizes op_i's operands with one
      credit, so an operation without credits stalls its predecessors
      instead of clogging the shared unit;
    - an arbiter (the "merge + muxes" of Figure 3) grants one request per
      cycle — by priority for CRUSH (an absent request never blocks
      others, Section 4.2) — and records the granted index in the
      condition buffer;
    - the shared pipelined unit computes on the granted operand bundle;
    - a branch dispatches each result to its operation's output buffer
      OB_i (N_OB,i = N_CC,i slots, honouring Equation 1: every in-flight
      token always finds a free slot, eliminating head-of-line blocking);
    - a lazy fork forwards the result to op_i's consumer and only then
      returns the credit to CC_i (the credit cannot be reused in the
      same cycle: the counter updates sequentially). *)

open Dataflow
open Types

type spec = {
  ops : int list;       (** unit ids, highest priority first *)
  credits : int list;   (** N_CC per op, same order *)
  policy : arbiter_policy;
  ob_slots : int list option;
      (** output buffer slots per op; defaults to the credit counts,
          honouring Equation 1.  Overriding it with fewer slots than
          credits reconstructs the naive sharing of Figure 1b, whose
          head-of-line-blocking deadlock the tests demonstrate. *)
}

(** Replace the operations of [spec] by one shared unit behind a sharing
    wrapper.  Each op must be a 2-input pipelined operator of the same
    opcode and latency.  Returns the shared unit's id. *)
let apply g (spec : spec) =
  let n = List.length spec.ops in
  if n < 2 then invalid_arg "Wrapper.apply: group of fewer than 2 operations";
  if List.length spec.credits <> n then
    invalid_arg "Wrapper.apply: one credit count per operation required";
  let ob_slots =
    match spec.ob_slots with Some s -> s | None -> spec.credits
  in
  if List.length ob_slots <> n then
    invalid_arg "Wrapper.apply: one output-buffer size per operation required";
  let op, latency =
    match Graph.kind_of g (List.hd spec.ops) with
    | Operator { op; latency; _ } -> (op, latency)
    | _ -> invalid_arg "Wrapper.apply: not an operator"
  in
  let group_loop =
    let loops = List.map (Graph.loop_of g) spec.ops in
    match loops with
    | l :: rest when List.for_all (( = ) l) rest -> l
    | _ -> -1
  in
  let name = string_of_opcode op in
  (* Central spine: arbiter -> shared unit -> branch, with the condition
     buffer carrying grant indices from arbiter to branch. *)
  let arbiter =
    Graph.add_unit g
      (Arbiter { inputs = n; policy = spec.policy })
      ~label:("arb_" ^ name) ~loop:group_loop
  in
  let shared =
    Graph.add_unit g
      (Operator { op; latency; ports = 1 })
      ~label:("shared_" ^ name) ~loop:group_loop
  in
  let sum_credits = List.fold_left ( + ) 0 spec.credits in
  (* The condition buffer is registered: it cuts the combinational
     handshake cycle arbiter -> branch -> output buffer -> consumer ->
     join -> arbiter.  Its one-cycle latency is hidden by the shared
     unit's pipeline (the grant index always arrives before the result). *)
  let cond_buffer =
    Graph.add_unit g
      (Buffer
         {
           slots = max (latency + 1) sum_credits;
           transparent = false;
           init = [];
           narrow = true;
         })
      ~label:("cond_" ^ name) ~loop:group_loop
  in
  let branch =
    Graph.add_unit g
      (Branch { outputs = n })
      ~label:("dispatch_" ^ name) ~loop:group_loop
  in
  ignore (Graph.connect g (arbiter, 0) (shared, 0));
  ignore (Graph.connect g (arbiter, 1) (cond_buffer, 0));
  ignore (Graph.connect g (shared, 0) (branch, 0));
  ignore (Graph.connect g (cond_buffer, 0) (branch, 1));
  (* Per-operation plumbing. *)
  List.iteri
    (fun i (op_uid, (n_cc, n_ob)) ->
      let bb = Graph.bb_of g op_uid and loop = Graph.loop_of g op_uid in
      let lbl suffix = suffix ^ "_" ^ name ^ string_of_int i in
      let cc =
        Graph.add_unit g (Credit_counter { init = n_cc }) ~bb ~loop
          ~label:(lbl "cc")
      in
      let join =
        Graph.add_unit g
          (Join { inputs = 3; keep = [| true; true; false |] })
          ~bb ~loop ~label:(lbl "join")
      in
      let ob =
        Graph.add_unit g
          (Buffer { slots = n_ob; transparent = true; init = []; narrow = false })
          ~bb ~loop ~label:(lbl "ob")
      in
      let lfork =
        Graph.add_unit g
          (Fork { outputs = 2; lazy_ = true })
          ~bb ~loop ~label:(lbl "ret")
      in
      (* Steal the operation's operand channels into the join, and its
         result channel out of the lazy fork. *)
      let a = Graph.in_channel_exn g op_uid 0 in
      let b = Graph.in_channel_exn g op_uid 1 in
      let r = Graph.out_channel_exn g op_uid 0 in
      Graph.retarget_dst g a.Graph.id (join, 0);
      Graph.retarget_dst g b.Graph.id (join, 1);
      Graph.retarget_src g r.Graph.id (lfork, 0);
      ignore (Graph.connect g (cc, 0) (join, 2));
      ignore (Graph.connect g (join, 0) (arbiter, i));
      ignore (Graph.connect g (branch, i) (ob, 0));
      ignore (Graph.connect g (ob, 0) (lfork, 0));
      ignore (Graph.connect g (lfork, 1) (cc, 0));
      Graph.remove_unit g op_uid)
    (List.combine spec.ops (List.combine spec.credits ob_slots));
  shared
