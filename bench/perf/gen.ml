(** Seeded input generation.  Every input a workload sends or simulates --
    input data seeds, request order, repeat picks and sanitize picks --
    is drawn here from [--seed], so one seed always yields byte-identical
    inputs and the program under test receives only the generated values.

    Picks are stratified (a fixed share of every block) rather than
    independent draws, so the seed changes which inputs run but not the
    mix, and the metrics do not move with it.  The optimize circuit set
    and the order of in-process operations are fixed: the seed would
    otherwise only reshuffle where garbage collection lands. *)

let rng ~seed ~salt = Random.State.make [| seed; salt |]

(** A seeded permutation of [0 .. n-1]. *)
let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** One serve request. *)
type job = {
  kernel : string;
  strategy : string;   (** "bb" | "fast" *)
  technique : string;  (** "naive" | "crush" | "inorder" *)
  job_seed : int;
  sanitize : bool;
  deadline_ms : int;
}

let max_cycles = 2_000_000

let body j =
  Printf.sprintf
    ({|{"kernel":"%s","strategy":"%s","technique":"%s","seed":%d,|}
    ^^ {|"max_cycles":%d,"sanitize":%b,"deadline_ms":%d}|})
    j.kernel j.strategy j.technique j.job_seed max_cycles j.sanitize
    j.deadline_ms

(** Kernels of serve-batch: small enough that a batch-tier miss is a few
    ms of simulation, so the serving layers are a visible share. *)
let batch_kernels = [| "atax"; "bicg"; "gsum"; "gsumif" |]

(** Deadline of every serve-batch request: under the daemon's 15 s
    batch threshold, so cache-warm misses take the in-process tier. *)
let batch_deadline_ms = 10_000

(** Deadline of every serve-worker request: over the 15 s threshold, so
    every request takes the worker-process tier. *)
let worker_deadline_ms = 30_000

(** Warm-up job that makes [kernel]'s circuit resident before timing. *)
let warm_job kernel ~technique =
  {
    kernel;
    strategy = "bb";
    technique;
    job_seed = 0;
    sanitize = false;
    deadline_ms = worker_deadline_ms;
  }

(** The first [n] serve-batch requests: CRUSH circuits of
    {!batch_kernels} with fresh seeds, each kernel once per block of
    four fresh requests in seeded order.  In every block of three
    requests one, at a seeded position, repeats the (kernel, seed) of the
    request four back, which the result cache answers. *)
let batch_jobs ~seed n =
  let st = rng ~seed ~salt:1 in
  let a = Array.make n (warm_job "gsum" ~technique:"crush") in
  let kernels = ref [||] and fresh = ref 0 and repeat_at = ref 0 in
  for i = 0 to n - 1 do
    if i mod 3 = 0 then repeat_at := i + Random.State.int st 3;
    a.(i) <-
      (if i >= 4 && i = !repeat_at then a.(i - 4)
       else begin
         let k = !fresh mod Array.length batch_kernels in
         if k = 0 then
           kernels := permutation st (Array.length batch_kernels);
         incr fresh;
         {
           kernel = batch_kernels.(!kernels.(k));
           strategy = "bb";
           technique = "crush";
           job_seed = (seed * 1_000_000) + i + 1;
           sanitize = false;
           deadline_ms = batch_deadline_ms;
         }
       end)
  done;
  a

(** The 66 circuits of serve-worker: every kernel under both codegen
    strategies and all three sharing techniques, grouped in threes by
    (kernel, strategy). *)
let worker_circuits =
  List.concat_map
    (fun (b : Kernels.Registry.bench) ->
      List.concat_map
        (fun strategy ->
          List.map
            (fun technique -> (b.Kernels.Registry.name, strategy, technique))
            [ "naive"; "crush"; "inorder" ])
        [ "bb"; "fast" ])
    Kernels.Registry.all
  |> Array.of_list

(** Serve-worker pass [pass]: each circuit once, in seeded order, with a
    fresh seed.  Of each (kernel, strategy) group of three, one circuit
    picked by the seed asks for the sanitizers. *)
let worker_pass ~seed ~pass =
  let n = Array.length worker_circuits in
  let st = rng ~seed ~salt:(1000 + pass) in
  let sanitized =
    Array.init (n / 3) (fun g -> (3 * g) + Random.State.int st 3)
  in
  Array.mapi
    (fun i c ->
      let kernel, strategy, technique = worker_circuits.(c) in
      {
        kernel;
        strategy;
        technique;
        job_seed = (seed * 1_000_000) + (pass * 1000) + i + 1;
        sanitize = sanitized.(c / 3) = c;
        deadline_ms = worker_deadline_ms;
      })
    (permutation st n)
