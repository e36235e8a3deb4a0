(** Length-prefixed JSONL framing for the supervisor <-> worker pipes.
    See the interface for the frame grammar and message protocol. *)

(* Stamped into every message; a peer speaking another version is
   treated as corrupt (the supervisor and workers are always the same
   binary, so this only fires on operator error). *)
let protocol_version = 1

type msg =
  | Hello of { pid : int; shard : int }
  | Job of { key : string; spec : Jsonl.t }
  | Heartbeat of { key : string }
  | Result of { key : string; attempts : int; outcome : Jsonl.t }
  | Shutdown

exception Corrupt of string

(* ------------------------------------------------------------------ *)
(* Message codec                                                       *)

let to_json = function
  | Hello { pid; shard } ->
      Jsonl.Obj
        [
          ("v", Jsonl.Int protocol_version);
          ("msg", Jsonl.String "hello");
          ("pid", Jsonl.Int pid);
          ("shard", Jsonl.Int shard);
        ]
  | Job { key; spec } ->
      Jsonl.Obj
        [
          ("v", Jsonl.Int protocol_version);
          ("msg", Jsonl.String "job");
          ("key", Jsonl.String key);
          ("spec", spec);
        ]
  | Heartbeat { key } ->
      Jsonl.Obj
        [
          ("v", Jsonl.Int protocol_version);
          ("msg", Jsonl.String "heartbeat");
          ("key", Jsonl.String key);
        ]
  | Result { key; attempts; outcome } ->
      Jsonl.Obj
        [
          ("v", Jsonl.Int protocol_version);
          ("msg", Jsonl.String "result");
          ("key", Jsonl.String key);
          ("attempts", Jsonl.Int attempts);
          ("outcome", outcome);
        ]
  | Shutdown ->
      Jsonl.Obj
        [ ("v", Jsonl.Int protocol_version); ("msg", Jsonl.String "shutdown") ]

let of_json j =
  let ( let* ) = Option.bind in
  let str k = Option.bind (Jsonl.member k j) Jsonl.to_str in
  let int k = Option.bind (Jsonl.member k j) Jsonl.to_int in
  let* v = int "v" in
  if v <> protocol_version then None
  else
    let* m = str "msg" in
    match m with
    | "hello" ->
        let* pid = int "pid" in
        let* shard = int "shard" in
        Some (Hello { pid; shard })
    | "job" ->
        let* key = str "key" in
        let* spec = Jsonl.member "spec" j in
        Some (Job { key; spec })
    | "heartbeat" ->
        let* key = str "key" in
        Some (Heartbeat { key })
    | "result" ->
        let* key = str "key" in
        let* attempts = int "attempts" in
        let* outcome = Jsonl.member "outcome" j in
        Some (Result { key; attempts; outcome })
    | "shutdown" -> Some Shutdown
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Blocking channel I/O (worker side)                                  *)

let write oc msg =
  let payload = Jsonl.to_string (to_json msg) in
  (* One write for the whole frame: a crash mid-frame can only truncate
     it, never interleave with another writer's header. *)
  Fio.output_string oc
    (Fmt.str "%d\n%s\n" (String.length payload) payload);
  Fio.flush oc

(* Frames over a pipe are not adversarial — the peer is our own binary —
   but a dying worker can truncate one, so every malformed shape maps to
   a soft failure (None / Corrupt), never an uncaught parse exception. *)
let max_frame_bytes = 16 * 1024 * 1024

let read ic =
  match Fio.input_line ic with
  | exception (End_of_file | Sys_error _) -> None
  | header -> (
      match int_of_string_opt (String.trim header) with
      | None -> None
      | Some len when len < 0 || len > max_frame_bytes -> None
      | Some len -> (
          (* +1 swallows the trailing newline of the frame. *)
          match Fio.really_input_string ic (len + 1) with
          | exception (End_of_file | Sys_error _) -> None
          | s -> (
              match Jsonl.parse (String.sub s 0 len) with
              | Error _ -> None
              | Ok j -> of_json j)))

(* ------------------------------------------------------------------ *)
(* Incremental decoder (supervisor side)                               *)

type decoder = { buf : Buffer.t; mutable pos : int }

let create_decoder () = { buf = Buffer.create 4096; pos = 0 }

let feed d bytes ~len = Buffer.add_subbytes d.buf bytes 0 len

(* Compact once the consumed prefix dominates, so a long-lived worker
   connection does not grow its buffer without bound. *)
let compact d =
  if d.pos > 4096 && d.pos * 2 > Buffer.length d.buf then begin
    let rest = Buffer.sub d.buf d.pos (Buffer.length d.buf - d.pos) in
    Buffer.clear d.buf;
    Buffer.add_string d.buf rest;
    d.pos <- 0
  end

let next d =
  let len = Buffer.length d.buf in
  let contents = Buffer.contents d.buf in
  match String.index_from_opt contents d.pos '\n' with
  | None -> None
  | Some nl -> (
      let header = String.sub contents d.pos (nl - d.pos) in
      match int_of_string_opt (String.trim header) with
      | None -> raise (Corrupt (Fmt.str "bad frame header %S" header))
      | Some n when n < 0 || n > max_frame_bytes ->
          raise (Corrupt (Fmt.str "bad frame length %d" n))
      | Some n ->
          if len - (nl + 1) < n + 1 then None (* frame not complete yet *)
          else begin
            let payload = String.sub contents (nl + 1) n in
            d.pos <- nl + 1 + n + 1;
            compact d;
            match Jsonl.parse payload with
            | Error e -> raise (Corrupt (Fmt.str "bad frame payload: %s" e))
            | Ok j -> (
                match of_json j with
                | Some m -> Some m
                | None -> raise (Corrupt "unknown message shape"))
          end)
