(** The benchmark's side of [crush serve]: spawning and draining the
    daemon, and a minimal HTTP/1.1 client for its API.  The daemon
    answers one request per connection and closes it, so a response is
    everything read until EOF. *)

module J = Exec.Jsonl

(** The CLI built next to this executable (the run script builds both). *)
let cli () =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../../bin/crush_cli.exe"

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let read_all fd =
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ()
  in
  go ()

(** [(status, body)] of an HTTP response. *)
let parse_reply reply =
  let rec body_at i =
    if i + 4 > String.length reply then None
    else if String.sub reply i 4 = "\r\n\r\n" then Some (i + 4)
    else body_at (i + 1)
  in
  match (body_at 0, String.split_on_char ' ' reply) with
  | Some b, _ :: code :: _ -> (
      match int_of_string_opt code with
      | Some status -> Ok (status, String.sub reply b (String.length reply - b))
      | None -> Error "malformed status line")
  | _ -> Error "malformed reply"

(** One exchange; [Error] on transport failure or a malformed reply. *)
let request ~port ~meth ~path body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.0;
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        write_all fd
          (Printf.sprintf
             "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s"
             meth path (String.length body) body);
        parse_reply (read_all fd)
      with Unix.Unix_error (e, f, _) -> Error (f ^ ": " ^ Unix.error_message e))

let post ~port body = request ~port ~meth:"POST" ~path:"/v1/submit" body

(** [/v1/stats] as JSON. *)
let stats ~port =
  match request ~port ~meth:"GET" ~path:"/v1/stats" "" with
  | Ok (200, body) -> (
      match J.parse body with Ok j -> j | Error e -> failwith ("stats: " ^ e))
  | Ok (s, _) -> failwith (Printf.sprintf "stats: HTTP %d" s)
  | Error e -> failwith ("stats: " ^ e)

(** Integer at a member path of a JSON object, 0 when absent. *)
let int_at path j =
  let rec go path j =
    match path with
    | [] -> J.to_int j
    | k :: rest -> Option.bind (J.member k j) (go rest)
  in
  Option.value ~default:0 (go path j)

type daemon = { pid : int; port : int; out : Unix.file_descr }

(** Daemons started and not yet reaped. *)
let live : int list ref = ref []

(** Read from [fd] until [stop] holds on what was read, EOF, or the
    timeout. *)
let read_until fd ~timeout_s stop =
  let acc = Buffer.create 256 and chunk = Bytes.create 4096 in
  let deadline = Measure.now () +. timeout_s in
  let rec go () =
    let left = deadline -. Measure.now () in
    if stop (Buffer.contents acc) || left <= 0.0 then ()
    else
      match Unix.select [ fd ] [] [] (Float.min left 0.25) with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | k ->
              Buffer.add_subbytes acc chunk 0 k;
              go ())
  in
  go ();
  Buffer.contents acc

(** Start [crush serve] on an ephemeral port with quotas lifted -- the
    benchmark measures service, not quota policy -- and a fresh request
    journal at [journal]. *)
let spawn ~journal =
  if Sys.file_exists journal then Sys.remove journal;
  let cli = cli () in
  let argv =
    [| cli; "serve"; "--port"; "0"; "--workers"; "2"; "--req-rate"; "1e6";
       "--fuel-rate"; "1e12"; "--journal"; journal |]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process cli argv null w Unix.stderr in
  Unix.close w;
  Unix.close null;
  live := pid :: !live;
  let line = read_until r ~timeout_s:30.0 (fun s -> String.contains s '\n') in
  (* "crush serve: listening on 127.0.0.1:PORT (...)" *)
  match
    Scanf.sscanf_opt line "crush serve: listening on %_[^:]:%d" Fun.id
  with
  | Some port -> { pid; port; out = r }
  | None -> failwith ("daemon did not start: " ^ String.escaped line)

(** SIGTERM, then wait for the drain line and the exit; returns what a
    clean drain must not have. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let tail = read_until d.out ~timeout_s:60.0 (fun _ -> false) in
  Unix.close d.out;
  let _, status = Unix.waitpid [] d.pid in
  live := List.filter (( <> ) d.pid) !live;
  let drained =
    List.find_map
      (fun l ->
        Scanf.sscanf_opt l
          "crush serve: drained conns_left=%d workers_alive=%d leaked_fds=%d"
          (fun c w f -> (c, w, f)))
      (String.split_on_char '\n' tail)
  in
  (match status with
  | Unix.WEXITED 0 -> []
  | _ -> [ "daemon did not exit cleanly" ])
  @
  match drained with
  | Some (0, 0, 0) -> []
  | Some (c, w, f) ->
      [
        Printf.sprintf
          "unclean drain: conns_left=%d workers_alive=%d leaked_fds=%d" c w f;
      ]
  | None -> [ "daemon printed no drain line" ]

(** Kill and reap any daemon still running when the benchmark exits. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)
