(** Persistent worker pool over {!Exec.Worker}; see the interface. *)

module Wire = Exec.Wire
module Worker = Exec.Worker
module Outcome = Exec.Outcome

type slot = { id : int; mutable proc : Worker.t option }

type t = {
  binary : string;
  argv_tail : string list;
  heartbeat_s : float;
  grace_s : float;
  slots : slot array;
  free : int Queue.t;
  m : Mutex.t;
  mutable closing : bool;
  mutable n_spawns : int;
  mutable n_respawns : int;
  mutable n_lost : int;
  mutable n_killed : int;
  mutable n_jobs : int;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let create ~binary ~argv_tail ~heartbeat_s ~grace_s ~n =
  if n < 1 then invalid_arg "Workers.create: n < 1";
  (* A job sent to a worker that has just died must come back as EPIPE
     ({!Exec.Worker.send} fails and the job classifies as worker-lost),
     not kill this process through the default SIGPIPE disposition. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t =
    {
      binary;
      argv_tail;
      heartbeat_s;
      grace_s;
      slots = Array.init n (fun id -> { id; proc = None });
      free = Queue.create ();
      m = Mutex.create ();
      closing = false;
      n_spawns = 0;
      n_respawns = 0;
      n_lost = 0;
      n_killed = 0;
      n_jobs = 0;
    }
  in
  Array.iter (fun s -> Queue.push s.id t.free) t.slots;
  t

(* ------------------------------------------------------------------ *)
(* Process lifecycle *)

let spawn t (s : slot) =
  let p = Worker.spawn ~binary:t.binary t.argv_tail in
  s.proc <- Some p;
  locked t (fun () ->
      t.n_spawns <- t.n_spawns + 1;
      if t.n_spawns > Array.length t.slots then t.n_respawns <- t.n_respawns + 1);
  p

(** Live process for [s], spawning if needed; [None] if spawn fails. *)
let ensure t (s : slot) =
  match s.proc with
  | Some p -> Some p
  | None -> ( try Some (spawn t s) with _ -> None)

(** Stop the slot's process and say how it ended. *)
let stop (s : slot) =
  match s.proc with
  | None -> "no process"
  | Some p ->
      s.proc <- None;
      Worker.stop p

(* ------------------------------------------------------------------ *)
(* Acquire / release *)

let acquire t ~deadline =
  (* Polling loop: stdlib [Condition] has no timed wait and every
     caller carries its own deadline; at serve concurrency a 2 ms poll
     is invisible next to a simulation. *)
  let rec go () =
    let got =
      locked t (fun () ->
          if t.closing then `Closing
          else
            match Queue.pop t.free with
            | id -> `Got id
            | exception Queue.Empty -> `Wait)
    in
    match got with
    | `Closing -> None
    | `Got id -> Some id
    | `Wait ->
        if Unix.gettimeofday () >= deadline then None
        else begin
          Unix.sleepf 0.002;
          go ()
        end
  in
  go ()

let release t id = locked t (fun () -> Queue.push id t.free)

(* ------------------------------------------------------------------ *)
(* Running one job *)

let lost t (s : slot) reason =
  locked t (fun () -> t.n_lost <- t.n_lost + 1);
  (* Respawn eagerly: the slot re-enters the free queue the moment the
     caller releases it, so the next job admitted to it must not pay
     spawn latency serially behind the loss.  A failed respawn leaves
     [proc = None]; the next [run_job] retries. *)
  (try
     if (not (locked t (fun () -> t.closing))) && s.proc = None then
       ignore (spawn t s)
   with _ -> ());
  (Outcome.Worker_lost { shard = s.id; reason }, 1)

let run_job t id ~key ~spec ~deadline =
  let s = t.slots.(id) in
  locked t (fun () -> t.n_jobs <- t.n_jobs + 1);
  match ensure t s with
  | None -> lost t s "spawn failed"
  | Some p ->
      if not (Worker.send p (Wire.Job { key; spec })) then lost t s (stop s)
      else begin
        let started = Unix.gettimeofday () in
        let hard_deadline = deadline +. t.grace_s in
        let last_beat = ref started in
        let preempt () =
          ignore (stop s);
          locked t (fun () -> t.n_killed <- t.n_killed + 1);
          ( Outcome.Worker_killed
              { shard = s.id; after_s = Unix.gettimeofday () -. started },
            1 )
        in
        let rec loop () =
          let now = Unix.gettimeofday () in
          if now >= hard_deadline then preempt ()
          else if t.heartbeat_s > 0.0 && now -. !last_beat >= t.heartbeat_s
          then preempt ()
          else
            let timeout =
              Float.max 0.005 (Float.min 0.25 (hard_deadline -. now))
            in
            match Worker.recv p ~timeout with
            | Worker.Msg (Wire.Result { key = k; attempts; outcome })
              when k = key -> (
                match Outcome.of_json (fun j -> Some j) outcome with
                | Some o -> (o, attempts)
                | None ->
                    ( Outcome.Worker_crash
                        { exn = "undecodable worker outcome"; backtrace = "" },
                      attempts ))
            | Worker.Msg (Wire.Heartbeat { key = k }) when k = key ->
                last_beat := Unix.gettimeofday ();
                loop ()
            | Worker.Msg _ | Worker.Idle -> loop ()
            (* Pipe EOF: the worker is gone, or wedged with its stdout
               closed; [stop] SIGKILLs before it reaps, so the slot is
               free again at once either way. *)
            | Worker.Closed -> lost t s (stop s)
            | Worker.Corrupt _ ->
                ignore (stop s);
                lost t s "corrupt frame"
        in
        loop ()
      end

(* ------------------------------------------------------------------ *)
(* Introspection and drain *)

let pids t =
  Array.to_list t.slots
  |> List.filter_map (fun s -> Option.map Worker.pid s.proc)

let stats t =
  locked t (fun () ->
      (t.n_spawns, t.n_respawns, t.n_lost, t.n_killed, t.n_jobs))

let shutdown t ~timeout_s =
  locked t (fun () -> t.closing <- true);
  let live = Array.to_list t.slots |> List.filter_map (fun s -> s.proc) in
  Array.iter (fun s -> s.proc <- None) t.slots;
  Worker.drain live ~timeout_s
