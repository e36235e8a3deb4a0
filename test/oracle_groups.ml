(* Frozen reference for Algorithm 1 (greedy sharing-group inference),
   kept verbatim as the differential-testing oracle for
   [Crush.Groups.infer].  Its [try_merge] re-checks rules R1, R2 and R3
   on every pair of the tentatively merged group, walking member lists
   and enumerating one simple-path tree per (member, target) pair; the
   library carries per-group facts, memoizes refusals and enumerates one
   tree per SCC member.  Do not optimize or refactor this file: its
   value is that it is the exact implementation the library must
   reproduce, group for group, in the same group order and member
   order.  Apart from this header, it is the unmodified [check_r1],
   [capacity], [check_r2], [r3_cache], [max_r3_scc_members],
   [check_r3], [try_merge] and [infer] of lib/core/groups.ml from
   before R3 became incremental, and the unmodified [max_distance] of
   lib/analysis/distances.ml from before the per-source enumeration. *)

module Context = Crush.Context
module Cost = Crush.Cost

type group = Crush.Groups.group = { ops : int list }

let check_r1 ctx ops =
  match ops with
  | [] -> true
  | o :: rest ->
      let op0 = Context.opcode_of ctx o and l0 = Context.latency_of ctx o in
      List.for_all
        (fun o' -> Context.opcode_of ctx o' = op0 && Context.latency_of ctx o' = l0)
        rest

let capacity ctx ops =
  match ops with [] -> 0 | o :: _ -> Context.latency_of ctx o

let check_r2 ctx ops =
  let cap = float_of_int (capacity ctx ops) in
  List.for_all
    (fun cfc ->
      let sum =
        List.fold_left (fun acc o -> acc +. Context.occupancy ctx cfc o) 0.0 ops
      in
      sum <= cap +. 1e-9)
    ctx.Context.critical

(** Length (in hops, counting intermediate units) of the longest simple
    path from [src] to [dst] using only nodes for which [in_scope] holds.
    Returns [None] when no path exists or the enumeration budget blows. *)
let max_distance ~succ ~in_scope ~budget src dst =
  let explored = ref 0 in
  let best = ref None in
  let exception Budget in
  let rec go node len on_path =
    incr explored;
    if !explored > budget then raise Budget;
    if node = dst && len > 0 then begin
      let d = len - 1 in
      match !best with
      | Some b when b >= d -> ()
      | _ -> best := Some d
    end
    else
      List.iter
        (fun m ->
          if in_scope m && not (List.mem m on_path) && not (m = src && len > 0)
          then go m (len + 1) (m :: on_path))
        (succ node)
  in
  match go src 0 [ src ] with
  | () -> Ok !best
  | exception Budget -> Error `Budget_exhausted

(** Memo for the R3 distance probes.  Greedy merging re-tests the same
    operation pairs every round, and each test walks max-distance
    enumerations from every SCC member — identical work each time, since
    the SCC structure is fixed for the lifetime of the context.  Keyed
    by (loop, component, source, target). *)
type r3_cache =
  (int * int * int * int, (int option, [ `Budget_exhausted ]) result) Hashtbl.t

let r3_cache () : r3_cache = Hashtbl.create 997

(** SCCs above this size are refused outright.  Dataflow SCCs are
    sparse rings in real kernels; a dense SCC (e.g. a machine-generated
    expression forest feeding one accumulator) exhausts the
    path-enumeration budget on essentially every probe, which already
    means "conservatively forbid the merge" — refusing upfront gives the
    same verdict without burning the budget once per (member, pair). *)
let max_r3_scc_members = 48

let check_r3 ?cache ctx ops =
  let cache = match cache with Some c -> c | None -> r3_cache () in
  List.for_all
    (fun (cfc : Analysis.Cfc.t) ->
      let scc = Context.sccs_of ctx cfc.loop_id in
      let in_cfc = List.filter (fun o -> Analysis.Cfc.mem cfc o) ops in
      (* Every pair of group members in the same SCC must be
         distance-distinguishable from every other SCC member. *)
      let pair_ok o o' =
        if not (Analysis.Scc.same_component scc o o') then true
        else begin
          match Analysis.Scc.component_of scc o with
          | None -> true
          | Some cid ->
              let members = Analysis.Scc.members scc cid in
              if List.length members > max_r3_scc_members then false
              else begin
                let scope = Hashtbl.create 17 in
                List.iter (fun u -> Hashtbl.replace scope u ()) members;
                let succ = Context.succ_in ctx.Context.graph (Hashtbl.mem scope) in
                let dist u target =
                  let key = (cfc.loop_id, cid, u, target) in
                  match Hashtbl.find_opt cache key with
                  | Some r -> r
                  | None ->
                      let r =
                        max_distance ~succ
                          ~in_scope:(Hashtbl.mem scope) ~budget:20_000 u target
                      in
                      Hashtbl.replace cache key r;
                      r
                in
                List.for_all
                  (fun u ->
                    if u = o || u = o' then true
                    else begin
                      match (dist u o, dist u o') with
                      | Ok (Some di), Ok (Some dj) -> di <> dj
                      | Ok None, Ok _ | Ok _, Ok None -> true
                      | Error `Budget_exhausted, _ | _, Error `Budget_exhausted
                        ->
                          (* Conservative: equidistant, forbid the merge. *)
                          false
                    end)
                  members
              end
        end
      in
      let rec pairs = function
        | [] -> true
        | o :: rest -> List.for_all (pair_ok o) rest && pairs rest
      in
      pairs in_cfc)
    ctx.Context.critical

(** One grouping step: try to merge any two groups; [true] if merged. *)
let try_merge ?(enforce_r3 = true) ?cache ctx groups =
  let arr = Array.of_list groups in
  let n = Array.length arr in
  let result = ref None in
  (try
     for i = 0 to n - 1 do
       for j = i + 1 to n - 1 do
         let merged = arr.(i).ops @ arr.(j).ops in
         if
           check_r1 ctx merged && check_r2 ctx merged
           && ((not enforce_r3) || check_r3 ?cache ctx merged)
         then begin
           let op = Option.get (Context.opcode_of ctx (List.hd merged)) in
           let credit =
             List.fold_left (fun m o -> max m (Context.credits_for ctx o)) 1 merged
           in
           if
             Cost.merge_profitable ~op ~credit ~a:(List.length arr.(i).ops)
               ~b:(List.length arr.(j).ops)
           then begin
             let rest =
               Array.to_list arr
               |> List.filteri (fun k _ -> k <> i && k <> j)
             in
             result := Some ({ ops = merged } :: rest);
             raise Exit
           end
         end
       done
     done
   with Exit -> ());
  !result

(** Algorithm 1: greedy merging until no change can be made.
    [enforce_r3] exists for the ablation study of rule R3 only. *)
let infer ?shareable ?enforce_r3 ctx =
  let candidates = Context.candidates ?shareable ctx in
  let cache = r3_cache () in
  let groups = ref (List.map (fun o -> { ops = [ o ] }) candidates) in
  let continue_ = ref true in
  while !continue_ do
    match try_merge ?enforce_r3 ~cache ctx !groups with
    | Some gs -> groups := gs
    | None -> continue_ := false
  done;
  !groups
