module J = Exec.Jsonl
module Outcome = Exec.Outcome

type tier = Batch_tier | Worker_tier

let tier_name = function Batch_tier -> "batch" | Worker_tier -> "worker"

(* The routing table, kept as one pure function so the test suite can
   pin it row by row.  A job runs in process iff every isolation reason
   to keep it out of process is absent:

   - cold (no compiled image): the frontend runs arbitrary user source,
     so first contact stays in a disposable worker process — the batch
     tier never compiles, it only replays images the worker tier has
     proven out;
   - sanitize: monitored runs are the poison-risk/heavy class the
     process pool exists for;
   - long deadline: a pool domain can only be preempted cooperatively,
     so the batch tier admits only jobs whose worst-case occupancy is
     bounded by the short-deadline threshold (a worker process can
     always be SIGKILLed);
   - watermark: past the in-flight cap the batch tier spills to the
     worker pool rather than queueing behind busy domains. *)
let tier_of ~warm ~sanitize ~deadline_left_s ~long_deadline_s ~queue
    ~watermark =
  if not warm then Worker_tier
  else if sanitize then Worker_tier
  else if deadline_left_s > long_deadline_s then Worker_tier
  else if queue >= watermark then Worker_tier
  else Batch_tier

type config = {
  domains : int;
  watermark : int;
  image_cache_bytes : int;
  long_deadline_s : float;
}

type t = {
  cfg : config;
  pool : Exec.Pool.t;
  images : Sim.Engine.image Cache.t;
  m : Mutex.t;
  mutable in_flight : int;
  mutable runs : int;
  mutable spills : int;
  mutable primes : int;
  mutable prime_failures : int;
  mutable closing : bool;
}

let create cfg =
  if cfg.domains < 1 then invalid_arg "Batch.create: domains < 1";
  if cfg.watermark < 1 then invalid_arg "Batch.create: watermark < 1";
  {
    cfg;
    pool = Exec.Pool.create ~jobs:cfg.domains;
    images =
      Cache.create ~max_weight:cfg.image_cache_bytes
        ~weight:Sim.Engine.image_bytes;
    m = Mutex.create ();
    in_flight = 0;
    runs = 0;
    spills = 0;
    primes = 0;
    prime_failures = 0;
    closing = false;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let images t = t.images
let in_flight t = locked t (fun () -> t.in_flight)

type decision = Run_batch of Sim.Engine.image | Run_worker

(** Route one admitted request.  Atomic with the in-flight accounting:
    a [Run_batch] decision holds a batch slot that {!run} releases. *)
let admit t ~sanitize ~deadline_left_s key =
  locked t (fun () ->
      if t.closing then Run_worker
      else begin
        let image = Cache.lookup t.images key in
        let tier =
          tier_of ~warm:(image <> None) ~sanitize ~deadline_left_s
            ~long_deadline_s:t.cfg.long_deadline_s ~queue:t.in_flight
            ~watermark:t.cfg.watermark
        in
        match (tier, image) with
        | Batch_tier, Some img ->
            t.in_flight <- t.in_flight + 1;
            Run_batch img
        | _, _ ->
            if
              image <> None && (not sanitize)
              && deadline_left_s <= t.cfg.long_deadline_s
            then t.spills <- t.spills + 1;
            Run_worker
      end)

(** Run a batch-admitted job on the domain pool over its cached image.
    Same classification pipeline as the worker tier
    ({!Exec.Campaign.run_with_retries} with zero retries), so the
    [Outcome] -> HTTP table stays the single authority downstream. *)
let run t ~deadline_at image (job : Api.job) : J.t Outcome.t =
  let result =
    ref
      (Outcome.Worker_lost { shard = -1; reason = "batch task never ran" }
        : J.t Outcome.t)
  in
  let task () =
    let timeout_s = deadline_at -. Unix.gettimeofday () in
    let o, _attempts =
      Exec.Campaign.run_with_retries ~timeout_s ~retries:0 (fun ~deadline ->
          Job.run_on_image ~deadline job image)
    in
    result := o
  in
  Fun.protect
    ~finally:(fun () ->
      locked t (fun () ->
          t.in_flight <- t.in_flight - 1;
          t.runs <- t.runs + 1))
    (fun () -> Exec.Pool.run_batch t.pool [| task |]);
  !result

(** Fill the image cache for a circuit the worker tier just ran
    successfully: compile in process (single-flight — concurrent primes
    of one key collapse to one compile) and fulfill, abandoning on any
    failure so a transient compile error never poisons the key.  This is
    how the cache warms at all: cold jobs are reserved to worker
    processes, so the parent only compiles circuits a worker already
    proved out end to end.  The request's routing probe in {!admit}
    already counted its hit or miss, so priming claims the key without
    counting a second one. *)
let prime t (job : Api.job) =
  let key = Api.circuit_digest job in
  if Cache.claim t.images key then
    match Job.compile job with
    | Ok graph ->
        let image = Sim.Engine.image graph in
        Cache.fulfill t.images key image;
        locked t (fun () -> t.primes <- t.primes + 1)
    | Error _ | (exception _) ->
        Cache.abandon t.images key;
        locked t (fun () -> t.prime_failures <- t.prime_failures + 1)

type counters = {
  runs : int;
  in_flight_now : int;
  spills : int;
  primes : int;
  prime_failures : int;
}

let stats t =
  locked t (fun () ->
      {
        runs = t.runs;
        in_flight_now = t.in_flight;
        spills = t.spills;
        primes = t.primes;
        prime_failures = t.prime_failures;
      })

(** Refuse new admissions, then join the worker domains.  Callers must
    first drain in-flight connection threads (the server's drain path
    does), since {!Exec.Pool.shutdown} requires an idle pool. *)
let shutdown t =
  locked t (fun () -> t.closing <- true);
  Exec.Pool.shutdown t.pool
