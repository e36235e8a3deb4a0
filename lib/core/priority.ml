(** Access-priority heuristic (Algorithm 2 of the paper).

    The arbiter of a sharing wrapper needs a priority between the group's
    operations.  A priority that contradicts the data dependencies
    penalizes the II (paper Figure 4): when op2 consumes op1's result,
    op1 must win ties.  The heuristic bubble-sorts the group's priority
    list: for each adjacent pair that belongs to one critical CFC, the
    pair is ordered by the topological rank of their SCCs in that CFC's
    SCC graph (producers first); members of the same SCC, or of
    unrelated CFCs, keep their order. *)


(* Topological rank of the SCC containing [uid] in the CFC of [loop_id]. *)
let rank_in ctx loop_id =
  let cfc =
    List.find
      (fun (c : Analysis.Cfc.t) -> c.loop_id = loop_id)
      ctx.Context.critical
  in
  let scc = Context.sccs_of ctx loop_id in
  let ranks =
    Analysis.Scc.topological_order scc ~nodes:cfc.units
      ~succ:(Context.succ_in ctx.Context.graph (Analysis.Cfc.mem cfc))
  in
  fun uid ->
    match Analysis.Scc.component_of scc uid with
    | Some cid -> Some ranks.(cid)
    | None -> None

(** [infer ctx ops] orders the group members by access priority (highest
    first). *)
let infer ctx ops =
  let rankers =
    List.map (fun (cfc : Analysis.Cfc.t) -> rank_in ctx cfc.loop_id) ctx.Context.critical
  in
  (* Should prio[i-1] and prio[i] swap?  Only when some critical CFC
     contains both and ranks the second strictly earlier. *)
  let must_swap a b =
    List.exists
      (fun rank ->
        match (rank a, rank b) with
        | Some ra, Some rb -> ra > rb
        | _ -> false)
      rankers
  in
  let arr = Array.of_list ops in
  let changed = ref true in
  (* Bounded passes: conflicting ranks across CFCs must not livelock. *)
  let rounds = ref 0 in
  while !changed && !rounds <= Array.length arr do
    incr rounds;
    changed := false;
    for i = 1 to Array.length arr - 1 do
      if must_swap arr.(i - 1) arr.(i) then begin
        let tmp = arr.(i - 1) in
        arr.(i - 1) <- arr.(i);
        arr.(i) <- tmp;
        changed := true
      end
    done
  done;
  Array.to_list arr
