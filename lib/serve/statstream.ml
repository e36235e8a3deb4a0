(** Bounded ring of per-second server aggregates; see the interface. *)

type t = {
  m : Mutex.t;
  ring : Exec.Jsonl.t array; (* sample [seq] lives at [seq mod cap] *)
  cap : int;
  mutable next : int;        (* seq the next push will get *)
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Statstream.create: capacity < 1";
  {
    m = Mutex.create ();
    ring = Array.make capacity Exec.Jsonl.Null;
    cap = capacity;
    next = 0;
    closed = false;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let push t sample =
  locked t (fun () ->
      if not t.closed then begin
        t.ring.(t.next mod t.cap) <- sample;
        t.next <- t.next + 1
      end)

let close t = locked t (fun () -> t.closed <- true)


let read_from t ~seq =
  locked t (fun () ->
      (* A reader that fell more than [cap] samples behind resumes at
         the oldest retained sample: the ring bounds memory, not the
         reader's lag. *)
      let lo = max seq (max 0 (t.next - t.cap)) in
      let rec go i acc =
        if i >= t.next then List.rev acc
        else go (i + 1) (t.ring.(i mod t.cap) :: acc)
      in
      (t.next, go lo [], t.closed))
