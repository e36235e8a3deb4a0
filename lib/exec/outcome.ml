(** The structured failure taxonomy of supervised campaigns.

    One variant type spans the whole pipeline, so a sweep result can say
    {e which stage} refused each task — a parser error is never conflated
    with a circuit deadlock, and a crashed worker domain is never
    conflated with an out-of-fuel simulation.  Every constructor carries
    the forensic payload that makes the failure diagnosable without
    re-running: source location for frontend errors, the cyclic-core
    unit labels for deadlocks, the still-firing set for livelocks, the
    backtrace for crashes. *)

type 'a t =
  | Ok of 'a
  | Frontend_error of {
      phase : string;              (** "lex" | "parse" | "sema" | "codegen" *)
      loc : (int * int) option;    (** 1-based line, column *)
      token : string option;
      message : string;
    }
  | Validation_error of { message : string }
  | Sim_deadlock of {
      cycle : int;
      core : string list;
          (** labels of the units in the forensics cyclic core(s) *)
    }
  | Out_of_fuel of {
      fuel : int;
      still_firing : string list;
          (** labels of units active in the final window (livelock set) *)
      exit_tokens : int;
    }
  | Job_timeout of { cycles : int }  (** simulated cycles when interrupted *)
  | Worker_crash of { exn : string; backtrace : string }
  | Sanitizer_violation of {
      cycle : int;
      unit_label : string;
      invariant : string;   (** stable name, e.g. ["eq1-credit-capacity"] *)
      detail : string;
      repro : string option;
          (** path of a minimized reproducer, once {!Reduce} produced one *)
    }
  | Worker_lost of {
      shard : int;
      reason : string;
          (** how the process died, e.g. ["signal 9"] or ["exit 2"] *)
    }
  | Worker_killed of {
      shard : int;
      after_s : float;  (** wall-clock seconds before the supervisor shot it *)
    }

let is_ok = function Ok _ -> true | _ -> false

(* Exhaustive, so a new failure class is a compile error here rather
   than a silently dropped payload. *)
let map f = function
  | Ok x -> Ok (f x)
  | Frontend_error e -> Frontend_error e
  | Validation_error e -> Validation_error e
  | Sim_deadlock e -> Sim_deadlock e
  | Out_of_fuel e -> Out_of_fuel e
  | Job_timeout e -> Job_timeout e
  | Worker_crash e -> Worker_crash e
  | Sanitizer_violation e -> Sanitizer_violation e
  | Worker_lost e -> Worker_lost e
  | Worker_killed e -> Worker_killed e

(** Transient failures are worth retrying: a wall-clock timeout can be a
    loaded machine, a crash can be a resource blip.  The deterministic
    classes (frontend, validation, deadlock, out-of-fuel, sanitizer)
    would fail identically on every retry. *)
let is_transient = function
  | Job_timeout _ | Worker_crash _ | Worker_lost _ | Worker_killed _ -> true
  | Ok _ | Frontend_error _ | Validation_error _ | Sim_deadlock _
  | Out_of_fuel _ | Sanitizer_violation _ ->
      false

let class_name = function
  | Ok _ -> "ok"
  | Frontend_error _ -> "frontend"
  | Validation_error _ -> "validation"
  | Sim_deadlock _ -> "deadlock"
  | Out_of_fuel _ -> "out-of-fuel"
  | Job_timeout _ -> "timeout"
  | Worker_crash _ -> "crash"
  | Sanitizer_violation _ -> "sanitizer"
  | Worker_lost _ -> "worker-lost"
  | Worker_killed _ -> "worker-killed"

(** Per-failure-class process exit codes.  10..17 keeps clear of the
    small codes cmdliner uses and of the shell's 124/125/126/127
    conventions; a supervised run exits with the code of its most severe
    failure class (worker loss > crash > sanitizer > timeout > the
    deterministic classes > ok).  Both process-level classes share 17:
    either way a whole worker process died rather than a single job
    failing in place. *)
let exit_code = function
  | Ok _ -> 0
  | Frontend_error _ -> 10
  | Validation_error _ -> 11
  | Sim_deadlock _ -> 12
  | Out_of_fuel _ -> 13
  | Job_timeout _ -> 14
  | Worker_crash _ -> 15
  | Sanitizer_violation _ -> 16
  | Worker_lost _ | Worker_killed _ -> 17

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)

let string_has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(** Map an exception escaping a job into the taxonomy.  Never raises;
    anything unrecognized is a [Worker_crash] carrying the exception
    rendering and the current backtrace (enable
    [Printexc.record_backtrace] in the executable for the latter to be
    non-empty). *)
let of_exn exn =
  let backtrace = Printexc.get_backtrace () in
  match exn with
  | Minic.Frontend.Error e ->
      Frontend_error
        {
          phase = Minic.Frontend.phase_name e.Minic.Frontend.phase;
          loc =
            Option.map
              (fun l -> (l.Minic.Frontend.line, l.Minic.Frontend.column))
              e.Minic.Frontend.loc;
          token = e.Minic.Frontend.token;
          message = e.Minic.Frontend.message;
        }
  | Invalid_argument m when string_has_prefix ~prefix:"invalid circuit" m ->
      Validation_error { message = m }
  | Sim.Engine.Timeout { cycles } -> Job_timeout { cycles }
  | Sim.Sanitizer.Violation v ->
      Sanitizer_violation
        {
          cycle = v.Sim.Sanitizer.cycle;
          unit_label = v.Sim.Sanitizer.unit_label;
          invariant = v.Sim.Sanitizer.invariant;
          detail = v.Sim.Sanitizer.detail;
          repro = None;
        }
  | e -> Worker_crash { exn = Printexc.to_string e; backtrace }

(** Classify a finished simulation: completion is [Ok stats], a deadlock
    carries its forensics cyclic core, an out-of-fuel run carries the
    livelock still-firing set. *)
let of_sim_run (out : Sim.Engine.outcome) =
  match out.Sim.Engine.stats.Sim.Engine.status with
  | Sim.Engine.Completed _ -> Ok out.Sim.Engine.stats
  | Sim.Engine.Deadlock cycle ->
      let core =
        match Sim.Forensics.analyze out with
        | Some r ->
            List.concat_map
              (fun (c : Sim.Forensics.core) ->
                List.map
                  (fun (n : Sim.Forensics.note) -> n.Sim.Forensics.label)
                  c.Sim.Forensics.notes)
              r.Sim.Forensics.cores
        | None -> []
      in
      Sim_deadlock { cycle; core }
  | Sim.Engine.Out_of_fuel fuel -> (
      match Sim.Forensics.analyze_livelock out with
      | Some l ->
          Out_of_fuel
            {
              fuel;
              still_firing =
                List.map
                  (fun (f : Sim.Forensics.firing) -> f.Sim.Forensics.f_label)
                  l.Sim.Forensics.recent;
              exit_tokens = l.Sim.Forensics.exit_tokens;
            }
      | None ->
          Out_of_fuel
            {
              fuel;
              still_firing = [];
              exit_tokens =
                List.length out.Sim.Engine.stats.Sim.Engine.exit_values;
            })

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)

type summary = {
  total : int;
  n_ok : int;
  n_frontend : int;
  n_validation : int;
  n_deadlock : int;
  n_out_of_fuel : int;
  n_timeout : int;
  n_crash : int;
  n_sanitizer : int;
  n_worker_lost : int;
  n_worker_killed : int;
}

let summarize outcomes =
  List.fold_left
    (fun s o ->
      let s = { s with total = s.total + 1 } in
      match o with
      | Ok _ -> { s with n_ok = s.n_ok + 1 }
      | Frontend_error _ -> { s with n_frontend = s.n_frontend + 1 }
      | Validation_error _ -> { s with n_validation = s.n_validation + 1 }
      | Sim_deadlock _ -> { s with n_deadlock = s.n_deadlock + 1 }
      | Out_of_fuel _ -> { s with n_out_of_fuel = s.n_out_of_fuel + 1 }
      | Job_timeout _ -> { s with n_timeout = s.n_timeout + 1 }
      | Worker_crash _ -> { s with n_crash = s.n_crash + 1 }
      | Sanitizer_violation _ -> { s with n_sanitizer = s.n_sanitizer + 1 }
      | Worker_lost _ -> { s with n_worker_lost = s.n_worker_lost + 1 }
      | Worker_killed _ -> { s with n_worker_killed = s.n_worker_killed + 1 })
    {
      total = 0;
      n_ok = 0;
      n_frontend = 0;
      n_validation = 0;
      n_deadlock = 0;
      n_out_of_fuel = 0;
      n_timeout = 0;
      n_crash = 0;
      n_sanitizer = 0;
      n_worker_lost = 0;
      n_worker_killed = 0;
    }
    outcomes

(** Exit code of a whole supervised run: that of the most severe class
    present, 0 when everything is ok. *)
let summary_exit_code s =
  if s.n_worker_lost > 0 || s.n_worker_killed > 0 then 17
  else if s.n_crash > 0 then 15
  else if s.n_sanitizer > 0 then 16
  else if s.n_timeout > 0 then 14
  else if s.n_out_of_fuel > 0 then 13
  else if s.n_deadlock > 0 then 12
  else if s.n_validation > 0 then 11
  else if s.n_frontend > 0 then 10
  else 0

let pp_summary ppf s =
  Fmt.pf ppf "@[<v>%d task(s): %d ok" s.total s.n_ok;
  let line name n = if n > 0 then Fmt.pf ppf ", %d %s" n name in
  line "frontend" s.n_frontend;
  line "validation" s.n_validation;
  line "deadlock" s.n_deadlock;
  line "out-of-fuel" s.n_out_of_fuel;
  line "timeout" s.n_timeout;
  line "crash" s.n_crash;
  line "sanitizer" s.n_sanitizer;
  line "worker-lost" s.n_worker_lost;
  line "worker-killed" s.n_worker_killed;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp pp_ok ppf = function
  | Ok v -> Fmt.pf ppf "ok (%a)" pp_ok v
  | Frontend_error { phase; loc; token; message } ->
      Fmt.pf ppf "%s error%s%s: %s" phase
        (match loc with
        | Some (l, c) -> Fmt.str " at %d:%d" l c
        | None -> "")
        (match token with Some t -> Fmt.str " (token '%s')" t | None -> "")
        message
  | Validation_error { message } -> Fmt.pf ppf "%s" message
  | Sim_deadlock { cycle; core } ->
      Fmt.pf ppf "deadlock at cycle %d (core: %a)" cycle
        Fmt.(list ~sep:comma string)
        core
  | Out_of_fuel { fuel; still_firing; exit_tokens } ->
      Fmt.pf ppf "out of fuel (budget %d, %d unit(s) still firing, %d exit tokens)"
        fuel (List.length still_firing) exit_tokens
  | Job_timeout { cycles } ->
      Fmt.pf ppf "timed out after %d simulated cycles" cycles
  | Worker_crash { exn; _ } -> Fmt.pf ppf "crash: %s" exn
  | Sanitizer_violation { cycle; unit_label; invariant; detail; repro } ->
      Fmt.pf ppf "sanitizer: %s at cycle %d on %s: %s%s" invariant cycle
        unit_label detail
        (match repro with
        | Some p -> Fmt.str " (repro: %s)" p
        | None -> "")
  | Worker_lost { shard; reason } ->
      Fmt.pf ppf "worker lost (shard %d): %s" shard reason
  | Worker_killed { shard; after_s } ->
      Fmt.pf ppf "worker killed by supervisor after %.1fs (shard %d)" after_s
        shard

(* ------------------------------------------------------------------ *)
(* JSON codec (for the journal)                                        *)

let opt_loc = function
  | Some (l, c) -> Jsonl.List [ Jsonl.Int l; Jsonl.Int c ]
  | None -> Jsonl.Null

let opt_str = function Some s -> Jsonl.String s | None -> Jsonl.Null

let to_json encode = function
  | Ok v -> Jsonl.Obj [ ("class", Jsonl.String "ok"); ("value", encode v) ]
  | Frontend_error { phase; loc; token; message } ->
      Jsonl.Obj
        [
          ("class", Jsonl.String "frontend");
          ("phase", Jsonl.String phase);
          ("loc", opt_loc loc);
          ("token", opt_str token);
          ("message", Jsonl.String message);
        ]
  | Validation_error { message } ->
      Jsonl.Obj
        [ ("class", Jsonl.String "validation"); ("message", Jsonl.String message) ]
  | Sim_deadlock { cycle; core } ->
      Jsonl.Obj
        [
          ("class", Jsonl.String "deadlock");
          ("cycle", Jsonl.Int cycle);
          ("core", Jsonl.List (List.map (fun s -> Jsonl.String s) core));
        ]
  | Out_of_fuel { fuel; still_firing; exit_tokens } ->
      Jsonl.Obj
        [
          ("class", Jsonl.String "out-of-fuel");
          ("fuel", Jsonl.Int fuel);
          ( "still_firing",
            Jsonl.List (List.map (fun s -> Jsonl.String s) still_firing) );
          ("exit_tokens", Jsonl.Int exit_tokens);
        ]
  | Job_timeout { cycles } ->
      Jsonl.Obj [ ("class", Jsonl.String "timeout"); ("cycles", Jsonl.Int cycles) ]
  | Worker_crash { exn; backtrace } ->
      Jsonl.Obj
        [
          ("class", Jsonl.String "crash");
          ("exn", Jsonl.String exn);
          ("backtrace", Jsonl.String backtrace);
        ]
  | Sanitizer_violation { cycle; unit_label; invariant; detail; repro } ->
      Jsonl.Obj
        [
          ("class", Jsonl.String "sanitizer");
          ("cycle", Jsonl.Int cycle);
          ("unit", Jsonl.String unit_label);
          ("invariant", Jsonl.String invariant);
          ("detail", Jsonl.String detail);
          ("repro", opt_str repro);
        ]
  | Worker_lost { shard; reason } ->
      Jsonl.Obj
        [
          ("class", Jsonl.String "worker-lost");
          ("shard", Jsonl.Int shard);
          ("reason", Jsonl.String reason);
        ]
  | Worker_killed { shard; after_s } ->
      Jsonl.Obj
        [
          ("class", Jsonl.String "worker-killed");
          ("shard", Jsonl.Int shard);
          ("after_s", Jsonl.Float after_s);
        ]

let of_json decode j =
  let ( let* ) = Option.bind in
  let str k = Option.bind (Jsonl.member k j) Jsonl.to_str in
  let int k = Option.bind (Jsonl.member k j) Jsonl.to_int in
  let str_list k =
    let* l = Option.bind (Jsonl.member k j) Jsonl.to_list in
    let strs = List.filter_map Jsonl.to_str l in
    if List.length strs = List.length l then Some strs else None
  in
  let* cls = str "class" in
  match cls with
  | "ok" ->
      let* v = Jsonl.member "value" j in
      let* v = decode v in
      Some (Ok v)
  | "frontend" ->
      let* phase = str "phase" in
      let* message = str "message" in
      let loc =
        match Jsonl.member "loc" j with
        | Some (Jsonl.List [ Jsonl.Int l; Jsonl.Int c ]) -> Some (l, c)
        | _ -> None
      in
      Some (Frontend_error { phase; loc; token = str "token"; message })
  | "validation" ->
      let* message = str "message" in
      Some (Validation_error { message })
  | "deadlock" ->
      let* cycle = int "cycle" in
      let* core = str_list "core" in
      Some (Sim_deadlock { cycle; core })
  | "out-of-fuel" ->
      let* fuel = int "fuel" in
      let* still_firing = str_list "still_firing" in
      let* exit_tokens = int "exit_tokens" in
      Some (Out_of_fuel { fuel; still_firing; exit_tokens })
  | "timeout" ->
      let* cycles = int "cycles" in
      Some (Job_timeout { cycles })
  | "crash" ->
      let* exn = str "exn" in
      let* backtrace = str "backtrace" in
      Some (Worker_crash { exn; backtrace })
  | "sanitizer" ->
      let* cycle = int "cycle" in
      let* unit_label = str "unit" in
      let* invariant = str "invariant" in
      let* detail = str "detail" in
      Some
        (Sanitizer_violation
           { cycle; unit_label; invariant; detail; repro = str "repro" })
  | "worker-lost" ->
      let* shard = int "shard" in
      let* reason = str "reason" in
      Some (Worker_lost { shard; reason })
  | "worker-killed" ->
      let* shard = int "shard" in
      let* after_s = Option.bind (Jsonl.member "after_s" j) Jsonl.to_float in
      Some (Worker_killed { shard; after_s })
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Codecs for the standard campaign payloads                           *)

let value_to_json v =
  let open Dataflow.Types in
  let rec go = function
    | VInt i -> Jsonl.Obj [ ("i", Jsonl.Int i) ]
    | VFloat f -> Jsonl.Obj [ ("f", Jsonl.Float f) ]
    | VBool b -> Jsonl.Obj [ ("b", Jsonl.Bool b) ]
    | VUnit -> Jsonl.Null
    | VTuple vs -> Jsonl.List (List.map go vs)
  in
  go v

let rec value_of_json j =
  let open Dataflow.Types in
  match j with
  | Jsonl.Null -> Some VUnit
  | Jsonl.Obj [ ("i", Jsonl.Int i) ] -> Some (VInt i)
  | Jsonl.Obj [ ("f", f) ] -> Option.map (fun f -> VFloat f) (Jsonl.to_float f)
  | Jsonl.Obj [ ("b", Jsonl.Bool b) ] -> Some (VBool b)
  | Jsonl.List l ->
      let vs = List.filter_map value_of_json l in
      if List.length vs = List.length l then Some (VTuple vs) else None
  | _ -> None

let status_to_json (s : Sim.Engine.status) =
  match s with
  | Sim.Engine.Completed c ->
      Jsonl.Obj [ ("st", Jsonl.String "completed"); ("cycle", Jsonl.Int c) ]
  | Sim.Engine.Deadlock c ->
      Jsonl.Obj [ ("st", Jsonl.String "deadlock"); ("cycle", Jsonl.Int c) ]
  | Sim.Engine.Out_of_fuel b ->
      Jsonl.Obj [ ("st", Jsonl.String "out-of-fuel"); ("cycle", Jsonl.Int b) ]

let status_of_json j =
  let ( let* ) = Option.bind in
  let* st = Option.bind (Jsonl.member "st" j) Jsonl.to_str in
  let* c = Option.bind (Jsonl.member "cycle" j) Jsonl.to_int in
  match st with
  | "completed" -> Some (Sim.Engine.Completed c)
  | "deadlock" -> Some (Sim.Engine.Deadlock c)
  | "out-of-fuel" -> Some (Sim.Engine.Out_of_fuel c)
  | _ -> None

let counters_to_json (c : Sim.Chaos.counters) =
  Jsonl.Obj
    [
      ("stalls", Jsonl.Int c.Sim.Chaos.stalls);
      ("port_jitters", Jsonl.Int c.Sim.Chaos.port_jitters);
      ("arbiter_permutes", Jsonl.Int c.Sim.Chaos.arbiter_permutes);
      ("extra_stages", Jsonl.Int c.Sim.Chaos.extra_stages);
    ]

let counters_of_json j =
  let int k = Option.bind (Jsonl.member k j) Jsonl.to_int in
  let field k =
    Option.value (int k) ~default:0 (* tolerate pre-counter journals *)
  in
  {
    Sim.Chaos.stalls = field "stalls";
    port_jitters = field "port_jitters";
    arbiter_permutes = field "arbiter_permutes";
    extra_stages = field "extra_stages";
  }

let stats_to_json (s : Sim.Engine.stats) =
  Jsonl.Obj
    [
      ("status", status_to_json s.Sim.Engine.status);
      ("cycles", Jsonl.Int s.Sim.Engine.cycles);
      ("transfers", Jsonl.Int s.Sim.Engine.transfers);
      ( "exit_values",
        Jsonl.List (List.map value_to_json s.Sim.Engine.exit_values) );
      ("perturbations", counters_to_json s.Sim.Engine.perturbations);
    ]

let stats_of_json j =
  let ( let* ) = Option.bind in
  let* status = Option.bind (Jsonl.member "status" j) status_of_json in
  let* cycles = Option.bind (Jsonl.member "cycles" j) Jsonl.to_int in
  let* transfers = Option.bind (Jsonl.member "transfers" j) Jsonl.to_int in
  let* exits = Option.bind (Jsonl.member "exit_values" j) Jsonl.to_list in
  let exit_values = List.filter_map value_of_json exits in
  if List.length exit_values <> List.length exits then None
  else
    (* Entries journalled before perturbation counters existed decode to
       zeros — a resumed campaign must not refuse its own checkpoints. *)
    let perturbations =
      match Jsonl.member "perturbations" j with
      | Some pj -> counters_of_json pj
      | None -> Sim.Chaos.zero_counters
    in
    Some
      {
        Sim.Engine.status;
        cycles;
        transfers;
        exit_values;
        perturbations;
      }
