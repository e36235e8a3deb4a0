(** Parallel simulation campaigns over a {!Pool} of domains.  See the
    interface for the determinism contract. *)

let default_jobs () = Domain.recommended_domain_count ()

let mapi ?(jobs = 1) f xs =
  if jobs <= 1 then List.mapi f xs
  else
    let items = Array.of_list xs in
    let n = Array.length items in
    if n = 0 then []
    else begin
      let results = Array.make n None in
      let tasks =
        Array.init n (fun i () -> results.(i) <- Some (f i items.(i)))
      in
      (* A transient pool per batch: domain spawn is microseconds against
         tasks that run whole simulations.  No more workers than tasks. *)
      Pool.with_pool ~jobs:(min jobs n) (fun pool -> Pool.run_batch pool tasks);
      Array.to_list
        (Array.map
           (function
             | Some r -> r
             | None ->
                 (* Unreachable: run_batch re-raises any task failure. *)
                 assert false)
           results)
    end

let map ?jobs f xs = mapi ?jobs (fun _ x -> f x) xs

let sweep ?jobs f xs ys =
  let pairs = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs in
  map ?jobs (fun (x, y) -> (x, y, f x y)) pairs

type sim_task = {
  graph : Dataflow.Graph.t;
  memory : Sim.Memory.t option;
  chaos : Sim.Chaos.config option;
  max_cycles : int option;
}

let sim_task ?memory ?chaos ?max_cycles graph =
  { graph; memory; chaos; max_cycles }

let run_sims ?jobs tasks =
  map ?jobs
    (fun { graph; memory; chaos; max_cycles } ->
      let out = Sim.Engine.run ?max_cycles ?chaos ?memory graph in
      out.Sim.Engine.stats)
    tasks

(* ------------------------------------------------------------------ *)
(* Supervised campaigns                                                *)

type supervision = {
  timeout_s : float option;
  retries : int;
  journal : string option;
  fsync : bool;
}

let supervision ?timeout_s ?(retries = 0) ?journal ?(fsync = false) () =
  if retries < 0 then
    invalid_arg (Fmt.str "Campaign.supervision: retries %d < 0" retries);
  { timeout_s; retries; journal; fsync }

let no_supervision =
  { timeout_s = None; retries = 0; journal = None; fsync = false }

(** Deadline predicate for one attempt, on the monotonic clock (a
    wall-clock step must not fire or starve it).  [limit <= 0.0] fires
    at the very first poll — before any time elapses — so a zero timeout
    interrupts at a deterministic simulated cycle, which is what the
    jobs-1-vs-jobs-4 bit-identity tests rely on. *)
let make_deadline = function
  | None -> fun () -> false
  | Some limit ->
      if limit <= 0.0 then fun () -> true
      else
        let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9 in
        let t0 = now () in
        fun () -> now () -. t0 >= limit

(** The one attempt-and-retry loop, shared between the in-process
    campaign below and the out-of-process shard workers
    ({!Supervisor.worker_main} callers): run [f] under a fresh deadline
    per attempt, classify escaping exceptions, retry transient outcomes
    up to [retries] extra times.  Keeping serial and sharded runs on the
    same loop is what makes their journalled [attempts] counts — and so
    the journal bytes — identical. *)
let run_with_retries ?timeout_s ?(retries = 0) f =
  let rec attempt n =
    let deadline = make_deadline timeout_s in
    let o =
      match f ~deadline with o -> o | exception e -> Outcome.of_exn e
    in
    if Outcome.is_transient o && n <= retries then attempt (n + 1) else (o, n)
  in
  attempt 1

let map_outcomes ?jobs ?(sup = no_supervision) ~key
    ?(encode = fun _ -> Jsonl.Null) ?(decode = fun _ -> None) f xs =
  let prior =
    match sup.journal with
    | Some path -> Journal.load path
    | None -> Hashtbl.create 1
  in
  (* An interrupted campaign finishes what is in flight, skips the rest.
     [None] marks a task skipped by the interrupt: never run, never
     journalled, so a rerun with the same journal picks it up. *)
  let writer = Option.map (Journal.open_append ~fsync:sup.fsync) sup.journal in
  let checkpoint k attempts outcome =
    match writer with
    | None -> ()
    | Some w ->
        Journal.record w
          {
            Journal.key = k;
            attempts;
            outcome = Outcome.to_json encode outcome;
          }
  in
  (* Every task resolves to an outcome — never an exception — so one
     poisoned job cannot destroy the batch, and [Pool.run_batch]'s
     re-raise path stays unused. *)
  let run_one x =
    let k = key x in
    let resumed =
      match Hashtbl.find_opt prior k with
      | Some (e : Journal.entry) -> (
          (* Resume skips every recorded key; a record whose payload no
             longer decodes (schema drift) is re-run instead. *)
          match Outcome.of_json decode e.Journal.outcome with
          | Some o -> Some (o, e.Journal.attempts, true)
          | None -> None)
      | None -> None
    in
    match resumed with
    | Some (o, attempts, _) -> Some (o, attempts)
    | None when Interrupt.triggered () -> None
    | None ->
        let o, attempts =
          run_with_retries ?timeout_s:sup.timeout_s ~retries:sup.retries
            (fun ~deadline -> f ~deadline x)
        in
        checkpoint k attempts o;
        Some (o, attempts)
  in
  let results =
    Fun.protect
      ~finally:(fun () -> Option.iter Journal.close writer)
      (fun () -> map ?jobs run_one xs)
  in
  let completed =
    List.concat_map
      (fun (x, r) -> match r with Some (o, a) -> [ (x, o, a) ] | None -> [])
      (List.combine xs results)
  in
  (match sup.journal with
  | Some journal ->
      let failed =
        List.concat_map
          (fun (x, o, attempts) ->
            if Outcome.is_ok o then []
            else [ (key x, attempts, Outcome.class_name o) ])
          completed
      in
      (* Quarantine bookkeeping covers only the keys this run actually
         resolved: tasks skipped by an interrupt keep whatever manifest
         entries they already had, exactly as if they were never part of
         the batch. *)
      Journal.write_quarantine ~journal
        ~batch:(List.map (fun (x, _, _) -> key x) completed)
        failed
  | None -> ());
  List.map (fun (x, o, _) -> (x, o)) completed

(** How many of [xs] a fresh [map_outcomes] run would actually execute,
    plus how many superseded duplicate-key records the journal holds —
    the replay/merge anomaly count that summaries surface so operators
    can see it after the fact (it used to be printed to stderr at load
    time and lost). *)
let pending_and_dups ?(sup = no_supervision) ~key xs =
  match sup.journal with
  | None -> (List.length xs, 0)
  | Some path ->
      let prior, dups = Journal.load_with_duplicates path in
      ( List.length (List.filter (fun x -> not (Hashtbl.mem prior (key x))) xs),
        dups )

let pending_count ?sup ~key xs = fst (pending_and_dups ?sup ~key xs)

let run_sims_supervised ?jobs ?(sup = no_supervision)
    ?(key = fun i _ -> Fmt.str "task-%04d" i) tasks =
  let indexed = List.mapi (fun i t -> (i, t)) tasks in
  map_outcomes ?jobs ~sup
    ~key:(fun (i, t) -> key i t)
    ~encode:Outcome.stats_to_json ~decode:Outcome.stats_of_json
    (fun ~deadline (_, { graph; memory; chaos; max_cycles }) ->
      Outcome.of_sim_run
        (Sim.Engine.run ?max_cycles ~deadline ?chaos ?memory graph))
    indexed
  |> List.map (fun ((_, t), o) -> (t, o))
