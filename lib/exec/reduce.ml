(** Automatic failing-case minimization: a deterministic, budget-bounded
    ddmin reducer over dataflow circuits.

    Input: a circuit that trips a {!Sim.Sanitizer} invariant when
    simulated under the sanitizer monitor.  Output: a much smaller
    circuit that trips the {e same} invariant, plus a self-contained
    [.repro.json] (circuit + metadata, replayable with {!load_repro})
    and a DOT rendering for eyeballs.

    The reducer never trusts a shrink: every candidate is structurally
    re-validated ({!Dataflow.Validate}) and re-simulated, and is kept
    only if the sanitizer still raises the target invariant.  Passes, in
    order:

    + {b coarse ddmin} over unit clusters — sharing-wrapper plumbing
      (matched by the [Wrapper.apply] label convention) is grouped per
      wrapped operation, so one test removes a whole [cc_]/[ob_]/
      [join_]/[ret_] bundle; this is also what splits a sharing group:
      dropping one operation's bundle re-tests the wrapper with a
      smaller group;
    + {b fine ddmin} over the surviving units one by one;
    + {b buffer-init shortening} — the input-vector shrink: initial
      tokens (including the reservoirs {!Crush.Elide.excise} left on cut
      channels) are dried up token by token;
    + {b buffer-slot shrinking} down to [max 1 (length init)];
    + {b memory halving} for declared memories.

    Removal uses {!Crush.Elide.excise}, which cauterizes every severed
    channel with ["cut_"]-labelled artifacts; those artifacts are
    scaffolding and are excluded from the {!result.kept_units} metric.

    Everything is deterministic — no randomness, no wall-clock — so the
    same failing circuit always reduces to the same repro, and a
    supervised campaign journals identical repro files at any
    [--jobs] level. *)

open Dataflow

type result = {
  graph : Graph.t;       (* the minimized circuit *)
  kept_units : int;      (* live units excluding "cut_" scaffolding *)
  evals : int;           (* predicate evaluations spent *)
  violation : Sim.Sanitizer.violation;  (* from the minimized circuit *)
  timed_out : bool;      (* the ?deadline fired; this is best-so-far *)
}

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let is_cut_label l = has_prefix "cut_" l

let kept_units g =
  Graph.fold_units g
    (fun n u -> if is_cut_label u.Graph.label then n else n + 1)
    0

(* ------------------------------------------------------------------ *)
(* The predicate                                                       *)

(** Simulate under the sanitizer; [Some v] iff a violation was raised.
    Any other outcome — completion, deadlock, fuel exhaustion, or an
    unrelated exception from a mangled candidate (e.g. a division by a
    cut-reservoir zero) — is [None]. *)
let simulate ?deadline ~max_cycles g =
  match
    let memory = Sim.Memory.of_graph g in
    let monitor = Sim.Sanitizer.monitor () in
    ignore (Sim.Engine.run ~max_cycles ?deadline ~monitor ~memory g)
  with
  | () -> None
  | exception Sim.Sanitizer.Violation v -> Some v
  | exception _ -> None

type st = {
  mutable evals : int;
  budget : int;
  max_cycles : int;
  target : string;  (* invariant name a candidate must reproduce *)
  deadline : unit -> bool;  (* campaign watchdog; stop, keep best *)
}

(* A fired deadline stops the walk exactly like a spent budget: every
   pass keeps the best (smallest) configuration proven so far. *)
let exhausted st = st.evals >= st.budget || st.deadline ()

(** One budgeted predicate evaluation: validate, simulate, compare the
    raised invariant against the target. *)
let attempt st g =
  if exhausted st then None
  else begin
    st.evals <- st.evals + 1;
    if not (Validate.is_valid g) then None
    else
      match simulate ~deadline:st.deadline ~max_cycles:st.max_cycles g with
      | Some v when v.Sim.Sanitizer.invariant = st.target -> Some v
      | _ -> None
  end

(* ------------------------------------------------------------------ *)
(* ddmin                                                               *)

let partition lst n =
  let len = List.length lst in
  let n = max 1 (min n len) in
  let arr = Array.of_list lst in
  List.init n (fun i ->
      let lo = i * len / n and hi = (i + 1) * len / n in
      Array.to_list (Array.sub arr lo (hi - lo)))

(** Zeller–Hildebrandt ddmin over the {e keep} set: returns a minimal
    sublist of [items] for which [test] still holds.  Assumes
    [test items] held on entry; every probe goes through the caller's
    budgeted [test], so the walk stops early when the budget runs out
    (returning the best configuration proven so far). *)
let ddmin ~test items =
  let rec go items n =
    if List.length items <= 1 then items
    else begin
      let chunks = partition items n in
      match List.find_opt test chunks with
      | Some c -> go c 2
      | None -> (
          let complements =
            List.map
              (fun c -> List.filter (fun x -> not (List.memq x c)) items)
              chunks
          in
          match List.find_opt test complements with
          | Some c -> go c (max (n - 1) 2)
          | None ->
              if n < List.length items then
                go items (min (List.length items) (2 * n))
              else items)
    end
  in
  go items 2

(* ------------------------------------------------------------------ *)
(* Clustering                                                          *)

(** Sharing-wrapper plumbing shares a per-operation label suffix
    ([cc_imul0], [ob_imul0], [join_imul0], [ret_imul0]...); clustering
    by that suffix lets the coarse pass drop one wrapped operation's
    whole bundle in a single test. *)
let wrapper_prefixes =
  [ "arb_"; "shared_"; "cond_"; "dispatch_"; "cc_"; "ob_"; "join_"; "ret_" ]

let cluster_key g uid =
  let l = Graph.label_of g uid in
  match List.find_opt (fun p -> has_prefix p l) wrapper_prefixes with
  | Some p ->
      "w:" ^ String.sub l (String.length p) (String.length l - String.length p)
  | None -> "u:" ^ string_of_int uid

let clusters_of g removable =
  let order = ref [] and tbl = Hashtbl.create 32 in
  List.iter
    (fun uid ->
      let key = cluster_key g uid in
      (match Hashtbl.find_opt tbl key with
      | None ->
          Hashtbl.replace tbl key [ uid ];
          order := key :: !order
      | Some us -> Hashtbl.replace tbl key (uid :: us)))
    removable;
  List.rev_map (fun key -> List.rev (Hashtbl.find tbl key)) !order |> List.rev

(* ------------------------------------------------------------------ *)
(* Shrinking passes                                                    *)

let buffer_uids g =
  Graph.fold_units g
    (fun acc u ->
      match u.Graph.kind with
      | Types.Buffer _ -> u.Graph.uid :: acc
      | _ -> acc)
    []
  |> List.rev

(** Mutate-and-check loop shared by the parameter shrinks: [next g]
    proposes the next smaller candidate (already applied to the copy
    [g]) or returns [false] when nothing is left to shrink. *)
let shrink_loop st current next =
  let continue_ = ref true in
  while !continue_ && not (exhausted st) do
    let cand = Graph.copy !current in
    if next cand then
      match attempt st cand with
      | Some _ -> current := cand
      | None -> continue_ := false
    else continue_ := false
  done

let shorten_inits st current =
  List.iter
    (fun uid ->
      shrink_loop st current (fun g ->
          match Graph.kind_of g uid with
          | Types.Buffer ({ init; _ } as b) when init <> [] ->
              let shorter =
                List.filteri (fun i _ -> i < List.length init - 1) init
              in
              (Graph.unit_exn g uid).Graph.kind <-
                Types.Buffer { b with init = shorter };
              true
          | _ -> false))
    (buffer_uids !current)

let shrink_slots st current =
  List.iter
    (fun uid ->
      shrink_loop st current (fun g ->
          match Graph.kind_of g uid with
          | Types.Buffer ({ slots; init; _ } as b)
            when slots > max 1 (List.length init) ->
              (Graph.unit_exn g uid).Graph.kind <-
                Types.Buffer { b with slots = slots - 1 };
              true
          | _ -> false))
    (buffer_uids !current)

let shrink_memories st current =
  List.iter
    (fun (name, _) ->
      shrink_loop st current (fun g ->
          match List.assoc_opt name g.Graph.memories with
          | Some size when size > 1 ->
              g.Graph.memories <-
                List.map
                  (fun (n, s) -> if n = name then (n, size / 2) else (n, s))
                  g.Graph.memories;
              true
          | _ -> false))
    (Graph.memories !current)

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)

let minimize ?(budget = 250) ?(max_cycles = 20_000)
    ?(deadline = fun () -> false) ?invariant g0 =
  let base = Graph.copy g0 in
  match simulate ~deadline ~max_cycles base with
  | None -> None
  | Some v0 ->
      let target =
        Option.value invariant ~default:v0.Sim.Sanitizer.invariant
      in
      if v0.Sim.Sanitizer.invariant <> target then None
      else begin
        let st = { evals = 1; budget; max_cycles; target; deadline } in
        let removable =
          Graph.fold_units base
            (fun acc u ->
              match u.Graph.kind with
              | Types.Exit -> acc  (* completion sinks stay *)
              | _ -> u.Graph.uid :: acc)
            []
          |> List.rev
        in
        let build_keeping keep =
          let kept = Hashtbl.create 64 in
          List.iter (fun u -> Hashtbl.replace kept u ()) keep;
          let removed =
            List.filter (fun u -> not (Hashtbl.mem kept u)) removable
          in
          let g = Graph.copy base in
          Crush.Elide.excise g removed;
          g
        in
        let test_keep keep = attempt st (build_keeping keep) <> None in
        (* coarse: wrapper-bundle clusters as atoms *)
        let kept_clusters =
          ddmin ~test:(fun ks -> test_keep (List.concat ks))
            (clusters_of base removable)
        in
        (* fine: surviving units one by one *)
        let kept = ddmin ~test:test_keep (List.concat kept_clusters) in
        let current = ref (build_keeping kept) in
        shorten_inits st current;
        shrink_slots st current;
        shrink_memories st current;
        (* The passes only ever commit configurations that reproduced
           the target invariant; re-run once (uncounted, and without the
           deadline — a fired watchdog must not discard the best-so-far
           reduction) to capture the final violation's cycle. *)
        match simulate ~max_cycles !current with
        | Some v when v.Sim.Sanitizer.invariant = target ->
            Some
              {
                graph = !current;
                kept_units = kept_units !current;
                evals = st.evals;
                violation = v;
                timed_out = st.deadline ();
              }
        | _ -> None
      end

(* ------------------------------------------------------------------ *)
(* Circuit <-> JSON                                                    *)

let repro_schema_version = 1

let ints = List.map (fun i -> Jsonl.Int i)

let policy_to_json = function
  | Types.Priority o ->
      Jsonl.Obj [ ("p", Jsonl.String "priority"); ("order", Jsonl.List (ints o)) ]
  | Types.Rotation o ->
      Jsonl.Obj [ ("p", Jsonl.String "rotation"); ("order", Jsonl.List (ints o)) ]
  | Types.Phased cs ->
      Jsonl.Obj
        [
          ("p", Jsonl.String "phased");
          ("clusters", Jsonl.List (List.map (fun c -> Jsonl.List (ints c)) cs));
        ]

let int_list_of_json j =
  Option.bind (Jsonl.to_list j) (fun xs ->
      let is = List.filter_map Jsonl.to_int xs in
      if List.length is = List.length xs then Some is else None)

let policy_of_json j =
  let ( let* ) = Option.bind in
  let* p = Option.bind (Jsonl.member "p" j) Jsonl.to_str in
  match p with
  | "priority" ->
      let* o = Option.bind (Jsonl.member "order" j) int_list_of_json in
      Some (Types.Priority o)
  | "rotation" ->
      let* o = Option.bind (Jsonl.member "order" j) int_list_of_json in
      Some (Types.Rotation o)
  | "phased" ->
      let* cs = Option.bind (Jsonl.member "clusters" j) Jsonl.to_list in
      let cs' = List.filter_map int_list_of_json cs in
      if List.length cs' = List.length cs then Some (Types.Phased cs') else None
  | _ -> None

let all_opcodes =
  let cmps = Types.[ Lt; Le; Gt; Ge; Eq; Ne ] in
  Types.[ Iadd; Isub; Imul; Idiv; Fadd; Fsub; Fmul; Fdiv; Band; Bor; Bnot;
          Select; Pass ]
  @ List.map (fun c -> Types.Icmp c) cmps
  @ List.map (fun c -> Types.Fcmp c) cmps

let opcode_of_string s =
  List.find_opt (fun o -> Types.string_of_opcode o = s) all_opcodes

let kind_to_json k =
  let tag t rest = Jsonl.Obj (("k", Jsonl.String t) :: rest) in
  match k with
  | Types.Entry v -> tag "entry" [ ("v", Outcome.value_to_json v) ]
  | Types.Exit -> tag "exit" []
  | Types.Const v -> tag "const" [ ("v", Outcome.value_to_json v) ]
  | Types.Fork { outputs; lazy_ } ->
      tag "fork" [ ("outputs", Jsonl.Int outputs); ("lazy", Jsonl.Bool lazy_) ]
  | Types.Join { inputs; keep } ->
      tag "join"
        [
          ("inputs", Jsonl.Int inputs);
          ( "keep",
            Jsonl.List (Array.to_list (Array.map (fun b -> Jsonl.Bool b) keep))
          );
        ]
  | Types.Merge { inputs } -> tag "merge" [ ("inputs", Jsonl.Int inputs) ]
  | Types.Arbiter { inputs; policy } ->
      tag "arbiter"
        [ ("inputs", Jsonl.Int inputs); ("policy", policy_to_json policy) ]
  | Types.Mux { inputs } -> tag "mux" [ ("inputs", Jsonl.Int inputs) ]
  | Types.Branch { outputs } -> tag "branch" [ ("outputs", Jsonl.Int outputs) ]
  | Types.Buffer { slots; transparent; init; narrow } ->
      tag "buffer"
        [
          ("slots", Jsonl.Int slots);
          ("transparent", Jsonl.Bool transparent);
          ("init", Jsonl.List (List.map Outcome.value_to_json init));
          ("narrow", Jsonl.Bool narrow);
        ]
  | Types.Operator { op; latency; ports } ->
      tag "op"
        [
          ("op", Jsonl.String (Types.string_of_opcode op));
          ("latency", Jsonl.Int latency);
          ("ports", Jsonl.Int ports);
        ]
  | Types.Load { memory; latency } ->
      tag "load"
        [ ("memory", Jsonl.String memory); ("latency", Jsonl.Int latency) ]
  | Types.Store { memory } -> tag "store" [ ("memory", Jsonl.String memory) ]
  | Types.Credit_counter { init } -> tag "credits" [ ("init", Jsonl.Int init) ]
  | Types.Sink -> tag "sink" []
  | Types.Stub -> tag "stub" []

let kind_of_json ~max_ports j =
  let ( let* ) = Option.bind in
  let int name = Option.bind (Jsonl.member name j) Jsonl.to_int in
  (* port counts and buffer slots size arrays: never negative *)
  let count name = Option.bind (int name) (fun n -> if n >= 0 then Some n else None) in
  (* every port of a valid circuit is connected, so no port count
     exceeds the channel count; a larger one would only allocate *)
  let ports name =
    Option.bind (count name) (fun n -> if n <= max_ports then Some n else None)
  in
  let bool name = Option.bind (Jsonl.member name j) Jsonl.to_bool in
  let str name = Option.bind (Jsonl.member name j) Jsonl.to_str in
  let value name = Option.bind (Jsonl.member name j) Outcome.value_of_json in
  let* k = str "k" in
  match k with
  | "entry" ->
      let* v = value "v" in
      Some (Types.Entry v)
  | "exit" -> Some Types.Exit
  | "const" ->
      let* v = value "v" in
      Some (Types.Const v)
  | "fork" ->
      let* outputs = ports "outputs" in
      let* lazy_ = bool "lazy" in
      Some (Types.Fork { outputs; lazy_ })
  | "join" ->
      let* inputs = ports "inputs" in
      let* ks = Option.bind (Jsonl.member "keep" j) Jsonl.to_list in
      let bs = List.filter_map Jsonl.to_bool ks in
      if List.length bs <> List.length ks then None
      else Some (Types.Join { inputs; keep = Array.of_list bs })
  | "merge" ->
      let* inputs = ports "inputs" in
      Some (Types.Merge { inputs })
  | "arbiter" ->
      let* inputs = ports "inputs" in
      let* policy = Option.bind (Jsonl.member "policy" j) policy_of_json in
      Some (Types.Arbiter { inputs; policy })
  | "mux" ->
      let* inputs = ports "inputs" in
      Some (Types.Mux { inputs })
  | "branch" ->
      let* outputs = ports "outputs" in
      Some (Types.Branch { outputs })
  | "buffer" ->
      let* slots = count "slots" in
      let* transparent = bool "transparent" in
      let* narrow = bool "narrow" in
      let* is = Option.bind (Jsonl.member "init" j) Jsonl.to_list in
      let init = List.filter_map Outcome.value_of_json is in
      if List.length init <> List.length is then None
      else Some (Types.Buffer { slots; transparent; init; narrow })
  | "op" ->
      let* op = Option.bind (str "op") opcode_of_string in
      let* latency = int "latency" in
      let* ports = ports "ports" in
      Some (Types.Operator { op; latency; ports })
  | "load" ->
      let* memory = str "memory" in
      let* latency = int "latency" in
      Some (Types.Load { memory; latency })
  | "store" ->
      let* memory = str "memory" in
      Some (Types.Store { memory })
  | "credits" ->
      let* init = int "init" in
      Some (Types.Credit_counter { init })
  | "sink" -> Some Types.Sink
  | "stub" -> Some Types.Stub
  | _ -> None

(** Serialize a circuit with unit ids remapped to a dense [0..n-1] —
    a reduced graph is mostly dead uids, and the repro should not leak
    the original's numbering. *)
let graph_to_json g =
  let uids =
    Graph.fold_units g (fun acc u -> u.Graph.uid :: acc) [] |> List.rev
  in
  let remap = Hashtbl.create 64 in
  List.iteri (fun i uid -> Hashtbl.replace remap uid i) uids;
  let units =
    List.map
      (fun uid ->
        let u = Graph.unit_exn g uid in
        Jsonl.Obj
          [
            ("kind", kind_to_json u.Graph.kind);
            ("label", Jsonl.String u.Graph.label);
            ("bb", Jsonl.Int u.Graph.bb);
            ("loop", Jsonl.Int u.Graph.loop);
            ("loop_header", Jsonl.Bool u.Graph.loop_header);
            ("pinned", Jsonl.Bool u.Graph.pinned);
          ])
      uids
  in
  let channels =
    List.map
      (fun (c : Graph.channel) ->
        let ep (e : Graph.endpoint) =
          Jsonl.List
            [ Jsonl.Int (Hashtbl.find remap e.Graph.unit_id);
              Jsonl.Int e.Graph.port ]
        in
        Jsonl.Obj [ ("src", ep c.Graph.src); ("dst", ep c.Graph.dst) ])
      (Graph.channels g)
  in
  let memories =
    List.map
      (fun (name, size) ->
        Jsonl.Obj [ ("name", Jsonl.String name); ("size", Jsonl.Int size) ])
      (Graph.memories g)
  in
  Jsonl.Obj
    [
      ("units", Jsonl.List units);
      ("channels", Jsonl.List channels);
      ("memories", Jsonl.List memories);
    ]

let graph_of_json j =
  let ( let* ) = Option.bind in
  let* units = Option.bind (Jsonl.member "units" j) Jsonl.to_list in
  let* channels = Option.bind (Jsonl.member "channels" j) Jsonl.to_list in
  let* memories = Option.bind (Jsonl.member "memories" j) Jsonl.to_list in
  let g = Graph.create () in
  let max_ports = List.length channels in
  let unit_ok u =
    let* kind = Option.bind (Jsonl.member "kind" u) (kind_of_json ~max_ports) in
    let* label = Option.bind (Jsonl.member "label" u) Jsonl.to_str in
    let* bb = Option.bind (Jsonl.member "bb" u) Jsonl.to_int in
    let* loop = Option.bind (Jsonl.member "loop" u) Jsonl.to_int in
    let* lh = Option.bind (Jsonl.member "loop_header" u) Jsonl.to_bool in
    let* pin = Option.bind (Jsonl.member "pinned" u) Jsonl.to_bool in
    match Graph.add_unit ~label ~bb ~loop g kind with
    | uid ->
        if lh then Graph.mark_loop_header g uid;
        if pin then Graph.pin g uid;
        Some ()
    | exception Invalid_argument _ -> None (* a port count too large to allocate *)
  in
  let endpoint e =
    match int_list_of_json e with Some [ u; p ] -> Some (u, p) | _ -> None
  in
  let channel_ok c =
    let* su, sp = Option.bind (Jsonl.member "src" c) endpoint in
    let* du, dp = Option.bind (Jsonl.member "dst" c) endpoint in
    match Graph.connect g (su, sp) (du, dp) with
    | (_ : int) -> Some ()
    | exception Invalid_argument _ -> None
  in
  let memory_ok m =
    let* name = Option.bind (Jsonl.member "name" m) Jsonl.to_str in
    let* size = Option.bind (Jsonl.member "size" m) Jsonl.to_int in
    if size < 0 then None
    else begin
      Graph.declare_memory g name size;
      Some ()
    end
  in
  let all f xs = List.for_all (fun x -> f x <> None) xs in
  if all unit_ok units && all channel_ok channels && all memory_ok memories
  then Some g
  else None

(* ------------------------------------------------------------------ *)
(* Repro files                                                         *)

type meta = {
  fault : string;      (* what produced the failing circuit *)
  invariant : string;  (* sanitizer invariant the repro trips *)
  cycle : int;         (* violation cycle when replayed *)
  unit_label : string; (* convicted unit *)
}

let meta_of_result ~fault r =
  {
    fault;
    invariant = r.violation.Sim.Sanitizer.invariant;
    cycle = r.violation.Sim.Sanitizer.cycle;
    unit_label = r.violation.Sim.Sanitizer.unit_label;
  }

let repro_to_json meta g =
  Jsonl.Obj
    [
      ("schema_version", Jsonl.Int repro_schema_version);
      ("fault", Jsonl.String meta.fault);
      ("invariant", Jsonl.String meta.invariant);
      ("cycle", Jsonl.Int meta.cycle);
      ("unit_label", Jsonl.String meta.unit_label);
      ("circuit", graph_to_json g);
    ]

let repro_of_json j =
  let ( let* ) = Option.bind in
  let* v = Option.bind (Jsonl.member "schema_version" j) Jsonl.to_int in
  if v <> repro_schema_version then None
  else
    let* fault = Option.bind (Jsonl.member "fault" j) Jsonl.to_str in
    let* invariant = Option.bind (Jsonl.member "invariant" j) Jsonl.to_str in
    let* cycle = Option.bind (Jsonl.member "cycle" j) Jsonl.to_int in
    let* unit_label = Option.bind (Jsonl.member "unit_label" j) Jsonl.to_str in
    let* g = Option.bind (Jsonl.member "circuit" j) graph_of_json in
    Some ({ fault; invariant; cycle; unit_label }, g)

let write_repro path meta g =
  Journal.write_atomic path (fun oc ->
      output_string oc (Jsonl.to_string (repro_to_json meta g));
      output_char oc '\n')

let load_repro path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = Fio.open_in path in
    let content =
      Fun.protect
        ~finally:(fun () -> Fio.close_in_noerr ic)
        (fun () -> Fio.really_input_string ic (in_channel_length ic))
    in
    match Jsonl.parse (String.trim content) with
    | Error _ -> None
    | Ok j -> repro_of_json j
  end

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** Minimize, then drop [<name>.repro.json] and [<name>.dot] into [dir]
    (created if missing).  Returns the repro path and the result, or
    [None] when the circuit does not trip a sanitizer invariant. *)
let reduce_to_files ?budget ?max_cycles ?deadline ?invariant ~dir ~name ~fault
    g =
  match minimize ?budget ?max_cycles ?deadline ?invariant g with
  | None -> None
  | Some r ->
      mkdir_p dir;
      let path = Filename.concat dir (name ^ ".repro.json") in
      write_repro path (meta_of_result ~fault r) r.graph;
      Dot.to_file ~name r.graph (Filename.concat dir (name ^ ".dot"));
      Some (path, r)
