(** Deterministic I/O fault injection; see the interface for the
    op-numbering contract and the fault-class semantics. *)

type fault = Eio | Enospc | Short_write | Eintr | Crash_after

type plan =
  | At of { op : int; fault : fault }
  | Every of { n : int; fault : fault }

exception Crashed of { op : int; fault : fault }

let all_faults = [ Eio; Enospc; Short_write; Eintr; Crash_after ]

let fault_to_string = function
  | Eio -> "eio"
  | Enospc -> "enospc"
  | Short_write -> "short"
  | Eintr -> "eintr"
  | Crash_after -> "crash"

let fault_of_string = function
  | "eio" -> Ok Eio
  | "enospc" -> Ok Enospc
  | "short" -> Ok Short_write
  | "eintr" -> Ok Eintr
  | "crash" -> Ok Crash_after
  | s -> Error (Fmt.str "unknown fault class %S (eio|enospc|short|eintr|crash)" s)

let plan_to_string = function
  | At { op; fault } -> Fmt.str "%s@%d" (fault_to_string fault) op
  | Every { n; fault } -> Fmt.str "%s:every=%d" (fault_to_string fault) n

let plan_of_string s =
  let ( let* ) = Result.bind in
  let pos_int what v =
    match int_of_string_opt v with
    | Some n when n > 0 -> Ok n
    | _ -> Error (Fmt.str "fault plan %S: %s must be a positive integer" s what)
  in
  match String.index_opt s '@' with
  | Some i ->
      let* fault = fault_of_string (String.sub s 0 i) in
      let* op = pos_int "op" (String.sub s (i + 1) (String.length s - i - 1)) in
      Ok (At { op; fault })
  | None -> (
      let marker = ":every=" in
      let mlen = String.length marker in
      let rec find i =
        if i + mlen > String.length s then None
        else if String.sub s i mlen = marker then Some i
        else find (i + 1)
      in
      match find 0 with
      | Some i ->
          let* fault = fault_of_string (String.sub s 0 i) in
          let* n =
            pos_int "period"
              (String.sub s (i + mlen) (String.length s - i - mlen))
          in
          Ok (Every { n; fault })
      | None ->
          Error
            (Fmt.str "fault plan %S: expected <fault>@<op> or <fault>:every=<n>"
               s))

(* ------------------------------------------------------------------ *)
(* Arming state                                                        *)

type armed_state = {
  plan : plan option;  (** [None] = count-only *)
  filter : string option;
  mutable ops : int;
  mutable hits : int;
  mu : Mutex.t;
}

type mode = Off | Armed of armed_state

let state = ref Off

let arm ?path_filter plan =
  state :=
    Armed
      {
        plan = Some plan;
        filter = path_filter;
        ops = 0;
        hits = 0;
        mu = Mutex.create ();
      }

let arm_count ?path_filter () =
  state :=
    Armed
      { plan = None; filter = path_filter; ops = 0; hits = 0; mu = Mutex.create () }

let disarm () =
  match !state with
  | Off -> 0
  | Armed a ->
      state := Off;
      a.ops

let armed () = match !state with Off -> false | Armed _ -> true

let fired () =
  match !state with
  | Off -> 0
  | Armed a ->
      Mutex.lock a.mu;
      let n = a.hits in
      Mutex.unlock a.mu;
      n

(* A crash that fires inside a [Fun.protect] finally (e.g. a journal
   close) surfaces wrapped; it is still the simulated process death. *)
let rec is_crash = function
  | Crashed _ -> true
  | Fun.Finally_raised e -> is_crash e
  | _ -> false

let protect ~finally f =
  match f () with
  | r ->
      finally ();
      r
  | exception e when is_crash e ->
      (* A dead process runs no filesystem cleanup. *)
      raise e
  | exception e ->
      (try finally () with _ -> ());
      raise e

(* ------------------------------------------------------------------ *)
(* Channel registry — so a simulated crash can reap fds like the OS
   reaps a dead process's.  Populated only while armed. *)

type chan = Oc of out_channel | Ic of in_channel

let reg_mu = Mutex.create ()
let registry : (chan * string) list ref = ref []

let chan_eq a b =
  match (a, b) with
  | Oc x, Oc y -> x == y
  | Ic x, Ic y -> x == y
  | _ -> false

let register ch path =
  Mutex.lock reg_mu;
  registry := (ch, path) :: !registry;
  Mutex.unlock reg_mu

let unregister ch =
  Mutex.lock reg_mu;
  registry := List.filter (fun (c, _) -> not (chan_eq c ch)) !registry;
  Mutex.unlock reg_mu

let path_of ch =
  Mutex.lock reg_mu;
  let p =
    match List.find_opt (fun (c, _) -> chan_eq c ch) !registry with
    | Some (_, p) -> p
    | None -> ""
  in
  Mutex.unlock reg_mu;
  p

let abandon_all () =
  Mutex.lock reg_mu;
  let cs = !registry in
  registry := [];
  Mutex.unlock reg_mu;
  List.iter
    (fun (c, _) ->
      match c with
      | Oc oc -> Stdlib.close_out_noerr oc
      | Ic ic -> Stdlib.close_in_noerr ic)
    cs;
  List.length cs

(* ------------------------------------------------------------------ *)
(* Injection machinery                                                 *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0

type verdict = Pass | Go of fault option * int

(** Number this op and consult the plan.  [Pass] = off or filtered out:
    behave exactly as the unwrapped call would. *)
let decide path =
  match !state with
  | Off -> Pass
  | Armed a ->
      let matches =
        match a.filter with None -> true | Some f -> contains path f
      in
      if not matches then Pass
      else begin
        Mutex.lock a.mu;
        a.ops <- a.ops + 1;
        let n = a.ops in
        let fault =
          match a.plan with
          | None -> None
          | Some (At { op; fault }) -> if n = op then Some fault else None
          | Some (Every { n = k; fault }) ->
              if k > 0 && n mod k = 0 then Some fault else None
        in
        (match fault with Some _ -> a.hits <- a.hits + 1 | None -> ());
        Mutex.unlock a.mu;
        Go (fault, n)
      end

let transient = function
  | Unix.Unix_error (Unix.EINTR, _, _) -> true
  | Sys_error m ->
      (* Stdlib channels surface EINTR as Sys_error "...Interrupted...". *)
      contains m "nterrupted"
  | _ -> false

let rec retrying f =
  match f () with r -> r | exception e when transient e -> retrying f

(** Interrupted exactly once, then the real call — so injected [EINTR]
    genuinely exercises the retry loop. *)
let once_eintr f =
  let first = ref true in
  fun () ->
    if !first then begin
      first := false;
      raise (Unix.Unix_error (Unix.EINTR, "fio", ""))
    end
    else f ()

(** Faults for ops with no meaningful partial effect: [Short_write]
    degrades to crash-{e before} the op, so together with [Crash_after]
    both edges of every op are explored. *)
let plain ~name ~path raw =
  match decide path with
  | Pass -> raw ()
  | Go (None, _) -> retrying raw
  | Go (Some Eio, _) -> raise (Unix.Unix_error (Unix.EIO, name, path))
  | Go (Some Enospc, _) -> raise (Unix.Unix_error (Unix.ENOSPC, name, path))
  | Go (Some Short_write, n) -> raise (Crashed { op = n; fault = Short_write })
  | Go (Some Eintr, _) -> retrying (once_eintr raw)
  | Go (Some Crash_after, n) ->
      let _ = retrying raw in
      raise (Crashed { op = n; fault = Crash_after })

(* ------------------------------------------------------------------ *)
(* Wrapped operations                                                  *)

let open_out_gen flags perm path =
  match !state with
  | Off -> Stdlib.open_out_gen flags perm path
  | Armed _ ->
      plain ~name:"open" ~path (fun () ->
          let oc = Stdlib.open_out_gen flags perm path in
          register (Oc oc) path;
          oc)

let open_out path =
  open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path

let open_in path =
  match !state with
  | Off -> Stdlib.open_in path
  | Armed _ ->
      plain ~name:"open" ~path (fun () ->
          let ic = Stdlib.open_in path in
          register (Ic ic) path;
          ic)

let output_string oc s =
  match !state with
  | Off -> Stdlib.output_string oc s
  | Armed _ -> (
      let path = path_of (Oc oc) in
      (* Write-through while armed: the write and its flush are one
         numbered op, so a later crash has no hidden buffered bytes. *)
      let full () =
        Stdlib.output_string oc s;
        retrying (fun () -> Stdlib.flush oc)
      in
      let prefix k =
        Stdlib.output_string oc (String.sub s 0 k);
        retrying (fun () -> Stdlib.flush oc)
      in
      match decide path with
      | Pass -> Stdlib.output_string oc s
      | Go (None, _) -> full ()
      | Go (Some Eio, _) -> raise (Unix.Unix_error (Unix.EIO, "write", path))
      | Go (Some Enospc, _) ->
          prefix (String.length s / 2);
          raise (Unix.Unix_error (Unix.ENOSPC, "write", path))
      | Go (Some Short_write, n) ->
          (* All but the final byte: a torn journal line that still
             lacks its newline is the nastiest recoverable state. *)
          prefix (max 0 (String.length s - 1));
          raise (Crashed { op = n; fault = Short_write })
      | Go (Some Eintr, _) -> retrying (once_eintr full)
      | Go (Some Crash_after, n) ->
          full ();
          raise (Crashed { op = n; fault = Crash_after }))

let flush oc =
  match !state with
  | Off -> Stdlib.flush oc
  | Armed _ ->
      plain ~name:"flush" ~path:(path_of (Oc oc)) (fun () -> Stdlib.flush oc)

let raw_fsync_out oc =
  retrying (fun () -> Stdlib.flush oc);
  retrying (fun () -> Unix.fsync (Unix.descr_of_out_channel oc))

let fsync_out oc =
  match !state with
  | Off -> raw_fsync_out oc
  | Armed _ ->
      plain ~name:"fsync" ~path:(path_of (Oc oc)) (fun () -> raw_fsync_out oc)

let close_out oc =
  match !state with
  | Off -> Stdlib.close_out oc
  | Armed _ ->
      plain ~name:"close" ~path:(path_of (Oc oc)) (fun () ->
          unregister (Oc oc);
          Stdlib.close_out oc)

let close_out_noerr oc =
  (match !state with Off -> () | Armed _ -> unregister (Oc oc));
  Stdlib.close_out_noerr oc

let close_in ic =
  match !state with
  | Off -> Stdlib.close_in ic
  | Armed _ ->
      plain ~name:"close" ~path:(path_of (Ic ic)) (fun () ->
          unregister (Ic ic);
          Stdlib.close_in ic)

let close_in_noerr ic =
  (match !state with Off -> () | Armed _ -> unregister (Ic ic));
  Stdlib.close_in_noerr ic

let input_line ic =
  match !state with
  | Off -> Stdlib.input_line ic
  | Armed _ ->
      plain ~name:"read" ~path:(path_of (Ic ic)) (fun () ->
          Stdlib.input_line ic)

let really_input_string ic n =
  match !state with
  | Off -> Stdlib.really_input_string ic n
  | Armed _ ->
      plain ~name:"read" ~path:(path_of (Ic ic)) (fun () ->
          Stdlib.really_input_string ic n)

let rename src dst =
  match !state with
  | Off -> Sys.rename src dst
  | Armed _ -> plain ~name:"rename" ~path:dst (fun () -> Sys.rename src dst)

let remove path =
  match !state with
  | Off -> Sys.remove path
  | Armed _ -> plain ~name:"remove" ~path (fun () -> Sys.remove path)

let raw_fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try retrying (fun () -> Unix.fsync fd) with
          | Unix.Unix_error ((Unix.EINVAL | Unix.EOPNOTSUPP | Unix.EBADF), _, _)
            ->
              ())

let fsync_dir dir =
  match !state with
  | Off -> raw_fsync_dir dir
  | Armed _ -> plain ~name:"fsyncdir" ~path:dir (fun () -> raw_fsync_dir dir)

let read fd buf pos len =
  match !state with
  | Off -> retrying (fun () -> Unix.read fd buf pos len)
  | Armed _ ->
      (* Pipes have no path: a path filter excludes them by design. *)
      plain ~name:"read" ~path:"" (fun () -> Unix.read fd buf pos len)
