(** Sharing-group heuristic (Algorithm 1 of the paper).

    Starting from singleton groups over the sharing candidates, greedily
    merge pairs until fixpoint.  A merge must pass:

    - R1: all operations have the same type (opcode and latency);
    - R2: in every performance-critical CFC, the summed token occupancy
      of the group's members stays within the unit capacity (its pipeline
      depth) — otherwise the shared unit cannot sustain the II;
    - R3: two members in the same SCC of a critical CFC must have
      distinct maximum distances from every other SCC member — members
      that always become ready simultaneously would serialize and
      penalize the II (paper Figure 5);
    - the cost model (Equation 2): the bigger wrapper must cost less than
      the unit it saves. *)


type group = { ops : int list }

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

(** R3 on one pair of operations of a critical CFC: if [o] and [o'] lie
    in the same SCC, every other SCC member must be at distinct maximum
    distances from the two. *)
let r3_pair_ok (cache : r3_cache) ctx (cfc : Analysis.Cfc.t) o o' =
  let scc = Context.sccs_of ctx cfc.loop_id in
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
                  Analysis.Distances.max_distance ~succ
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
                | Error `Budget_exhausted, _ | _, Error `Budget_exhausted ->
                    (* Conservative: equidistant, forbid the merge. *)
                    false
              end)
            members
        end
  end

(** R3 for the union of two groups that each satisfy it: the pairs
    inside one group passed when that group was merged, so only the
    |a|·|b| pairs across the two remain to check. *)
let check_r3_across cache ctx a b =
  List.for_all
    (fun (cfc : Analysis.Cfc.t) ->
      let b = List.filter (Analysis.Cfc.mem cfc) b in
      List.for_all
        (fun o ->
          (not (Analysis.Cfc.mem cfc o))
          || List.for_all (r3_pair_ok cache ctx cfc o) b)
        a)
    ctx.Context.critical

let check_r3 ctx ops =
  let cache = r3_cache () in
  let rec go = function
    | [] -> true
    | o :: rest -> check_r3_across cache ctx [ o ] rest && go rest
  in
  go ops

(** One grouping step: merge the first profitable, rule-satisfying pair
    of groups; [None] when no merge is possible.  Every group [infer]
    holds was built from singletons by merges that passed R3, so R3 of
    a merge is exactly R3 of the pairs across its two groups. *)
let try_merge ~enforce_r3 cache ctx groups =
  let arr = Array.of_list groups in
  let n = Array.length arr in
  let result = ref None in
  (try
     for i = 0 to n - 1 do
       for j = i + 1 to n - 1 do
         let a = arr.(i).ops and b = arr.(j).ops in
         let merged = a @ b in
         if
           check_r1 ctx merged && check_r2 ctx merged
           && ((not enforce_r3) || check_r3_across cache ctx a b)
         then begin
           let op = Option.get (Context.opcode_of ctx (List.hd merged)) in
           let credit =
             List.fold_left (fun m o -> max m (Context.credits_for ctx o)) 1 merged
           in
           if
             Cost.merge_profitable ~op ~credit ~a:(List.length a)
               ~b:(List.length b)
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
let infer ?shareable ?(enforce_r3 = true) ctx =
  let candidates = Context.candidates ?shareable ctx in
  let cache = r3_cache () in
  let groups = ref (List.map (fun o -> { ops = [ o ] }) candidates) in
  let continue_ = ref true in
  while !continue_ do
    match try_merge ~enforce_r3 cache ctx !groups with
    | Some gs -> groups := gs
    | None -> continue_ := false
  done;
  !groups

(** Groups that actually share (size >= 2). *)
let sharing_groups groups = List.filter (fun g -> List.length g.ops >= 2) groups
