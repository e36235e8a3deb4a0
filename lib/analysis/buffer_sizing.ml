(** Throughput-aware buffer rightsizing.

    The structural slack matching of the circuit builder sizes FIFOs for
    the worst case (II = 1): a reconvergent path with latency imbalance L
    gets ~L slots.  At the achievable II of the loop, sustaining the
    throughput requires the fast paths to run ahead of the slowest one by
    about L_max / II iterations — so every forward-path FIFO needs that
    many slots, but no more.  This pass replays the buffer-sizing role of
    Dynamatic's MILP [34]: per loop it estimates the maximum imbalance
    L_max (the largest structural FIFO is a faithful witness, since the
    builder sized them to latency differences), computes the loop's II,
    and shrinks every transparent FIFO to the run-ahead depth plus an
    elasticity margin.  Shrinking can cost throughput if the II were
    overestimated, but never causes deadlock (slack is a performance
    device; correctness never depends on it). *)

open Dataflow

(** Slots a loop's FIFOs need: run-ahead tokens plus margin. *)
let runahead_slots ~ii ~max_imbalance =
  let tokens = Float.ceil (float_of_int max_imbalance /. ii) in
  int_of_float tokens + 2

(** Rightsize every transparent FIFO of [g] according to its loop's II
    and maximum imbalance (buffers outside any loop see one token and
    shrink to the minimum).  Pinned buffers are left alone.  Returns the
    number of slots removed. *)
let rightsize g =
  (* Largest structural FIFO per loop: witness of the max imbalance; and
     the loops with a FIFO to shrink. *)
  let max_imbalance = Hashtbl.create 7 and loops = ref [] in
  let shrinkable (u : Graph.unit_node) slots =
    slots > 2 && not (Graph.is_pinned g u.uid)
  in
  Graph.iter_units g (fun u ->
      match u.Graph.kind with
      | Types.Buffer { slots; transparent = true; init = []; _ } ->
          let l = u.Graph.loop in
          let prev = Option.value (Hashtbl.find_opt max_imbalance l) ~default:0 in
          Hashtbl.replace max_imbalance l (max prev (slots - 1));
          if l >= 0 && shrinkable u slots then loops := l :: !loops
      | _ -> ());
  (* One analysis pass over those loops; unbounded II leaves their
     buffers alone. *)
  let targets = Hashtbl.create 7 in
  List.iter
    (fun (cfc : Cfc.t) ->
      Hashtbl.replace targets cfc.loop_id
        (Option.map
           (fun ii ->
             let imb =
               Option.value (Hashtbl.find_opt max_imbalance cfc.loop_id) ~default:0
             in
             runahead_slots ~ii:(Float.max 1.0 ii) ~max_imbalance:imb)
           (Cfc.ii_value cfc)))
    (Cfc.of_loops g (List.sort_uniq compare !loops));
  let target_of_loop l = if l < 0 then Some 2 else Hashtbl.find targets l in
  let removed = ref 0 in
  Graph.iter_units g (fun u ->
      match u.Graph.kind with
      | Types.Buffer { slots; transparent = true; init = []; narrow }
        when shrinkable u slots -> (
          match target_of_loop u.Graph.loop with
          | Some target when target < slots ->
              removed := !removed + (slots - target);
              u.Graph.kind <-
                Types.Buffer
                  { slots = target; transparent = true; init = []; narrow }
          | _ -> ())
      | _ -> ());
  !removed
