(** One worker process seen from the parent; see the interface. *)

type t = {
  pid : int;
  oc : out_channel;           (* job frames -> worker stdin *)
  fd : Unix.file_descr;       (* worker stdout -> us *)
  dec : Wire.decoder;
  buf : bytes;
  mutable closed : bool;      (* both pipe ends released *)
  mutable ended : string option;  (* how it ended, once reaped *)
}

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let spawn ~binary args =
  let child_in, to_w = Unix.pipe ~cloexec:true () in
  let from_w, child_out = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (binary :: args) in
  match Unix.create_process binary argv child_in child_out Unix.stderr with
  | exception e ->
      List.iter Unix.close [ child_in; child_out; to_w; from_w ];
      raise e
  | pid ->
      Unix.close child_in;
      Unix.close child_out;
      {
        pid;
        oc = Unix.out_channel_of_descr to_w;
        fd = from_w;
        dec = Wire.create_decoder ();
        buf = Bytes.create 65536;
        closed = false;
        ended = None;
      }

let pid t = t.pid

let send t msg =
  match Wire.write t.oc msg with
  | () -> true
  | exception (Sys_error _ | Unix.Unix_error _) -> false

type event = Msg of Wire.msg | Idle | Closed | Corrupt of string

let readable ts ~timeout =
  match Unix.select (List.map (fun t -> t.fd) ts) [] [] timeout with
  | fds, _, _ -> List.filter (fun t -> List.mem t.fd fds) ts
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let recv t ~timeout =
  let next () =
    match Wire.next t.dec with
    | Some m -> Some (Msg m)
    | None -> None
    | exception Wire.Corrupt why -> Some (Corrupt why)
  in
  match next () with
  | Some e -> e
  | None -> (
      if readable [ t ] ~timeout = [] then Idle
      else
        (* A signal is not the end of the pipe; any other read error is
           as final as EOF. *)
        match Fio.read t.fd t.buf 0 (Bytes.length t.buf) with
        | 0 -> Closed
        | n -> (
            Wire.feed t.dec t.buf ~len:n;
            match next () with Some e -> e | None -> Idle)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> Idle
        | exception Unix.Unix_error _ -> Closed)

(* A reaped pid may already belong to another process: never signal it. *)
let kill t =
  if t.ended = None then
    try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ()

let reason = function
  | Unix.WEXITED c -> Fmt.str "exit %d" c
  | Unix.WSIGNALED s -> Fmt.str "signal %d" s
  | Unix.WSTOPPED s -> Fmt.str "stopped %d" s

let rec waitpid flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

let stop t =
  kill t;
  if not t.closed then begin
    t.closed <- true;
    (* [close_out] flushes first, and a flush to a dead worker raises
       EPIPE before the fd is released; [close_out_noerr] still closes
       it. *)
    close_out_noerr t.oc;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end;
  match t.ended with
  | Some r -> r
  | None ->
      let r =
        match waitpid [] t.pid with
        | _, status -> reason status
        | exception Unix.Unix_error _ -> "already reaped"
      in
      t.ended <- Some r;
      r

let drain ts ~timeout_s =
  List.iter (fun t -> ignore (send t Wire.Shutdown)) ts;
  let deadline = now_s () +. timeout_s in
  let rec exited t =
    match waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        now_s () < deadline
        && begin
             Unix.sleepf 0.01;
             exited t
           end
    | _, status ->
        t.ended <- Some (reason status);
        true
    | exception Unix.Unix_error _ ->
        t.ended <- Some "already reaped";
        true
  in
  List.fold_left
    (fun stragglers t ->
      let clean = t.ended <> None || exited t in
      ignore (stop t);
      if clean then stragglers else stragglers + 1)
    0 ts
