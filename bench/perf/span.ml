(** In-memory spans around the benchmark's calls into each layer.

    Spans are recorded only while {!enabled} is set (the traced run),
    only from the main thread, and are kept in memory until
    {!write_chrome} dumps them.  With tracing off, {!run} is a direct
    call. *)

type t = {
  name : string;  (** ["layer.call"], e.g. ["minic.parse"] *)
  id : int;
  parent : int;  (** enclosing span id, 0 at top level *)
  tag : string;  (** circuit or request the call worked on *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let finished : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let run ?(tag = "") name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = Measure.now () in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        let s = { name; id; parent; tag; t0; t1 = Measure.now () } in
        finished := s :: !finished)
      f
  end

let all () = List.rev !finished
let duration_ms s = (s.t1 -. s.t0) *. 1000.0

(** Durations in ms of every finished span called [name]. *)
let durations_ms name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration_ms s) else None)
    (all ())

(** Mean duration in ms of the spans called [name]; 0 when none ran. *)
let mean_ms name =
  match durations_ms name with
  | [] -> 0.0
  | ds -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)

type row = {
  row_name : string;
  count : int;
  total_ms : float;
  self_ms : float;
  p50_ms : float;
}

(** Per-name count, total, self time (duration minus the time its child
    spans cover; children of one parent never overlap on one thread) and
    p50, in first-seen order. *)
let table () =
  let spans = all () in
  let child_ms = Hashtbl.create 256 in
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let add tbl k x = Hashtbl.replace tbl k (x +. get tbl k) in
  List.iter
    (fun s -> if s.parent <> 0 then add child_ms s.parent (duration_ms s))
    spans;
  let names = ref [] in
  let durations = Hashtbl.create 32 and self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = duration_ms s in
      let ds = Option.value ~default:[] (Hashtbl.find_opt durations s.name) in
      if ds = [] then names := s.name :: !names;
      Hashtbl.replace durations s.name (d :: ds);
      add self s.name (d -. get child_ms s.id))
    spans;
  List.rev_map
    (fun n ->
      let ds = Hashtbl.find durations n in
      {
        row_name = n;
        count = List.length ds;
        total_ms = List.fold_left ( +. ) 0.0 ds;
        self_ms = Hashtbl.find self n;
        p50_ms = Measure.median ds;
      })
    !names

let pp_table ppf rows =
  Format.fprintf ppf "%-26s %8s %12s %12s %10s@." "span" "count" "total_ms"
    "self_ms" "p50_ms";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-26s %8d %12.3f %12.3f %10.4f@." r.row_name r.count
        r.total_ms r.self_ms r.p50_ms)
    rows

(** Chrome-trace JSON ("X" complete events, microseconds from the first
    span), loadable in Perfetto or chrome://tracing. *)
let write_chrome path =
  let module J = Exec.Jsonl in
  let spans = all () in
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans
  in
  let event s =
    J.Obj
      [
        ("name", J.String s.name);
        ("cat", J.String (List.hd (String.split_on_char '.' s.name)));
        ("ph", J.String "X");
        ("ts", J.Float ((s.t0 -. origin) *. 1e6));
        ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ( "args",
          J.Obj
            [
              ("id", J.Int s.id);
              ("parent", J.Int s.parent);
              ("tag", J.String s.tag);
            ] );
      ]
  in
  let trace = J.Obj [ ("traceEvents", J.List (List.map event spans)) ] in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string trace);
      output_char oc '\n')
