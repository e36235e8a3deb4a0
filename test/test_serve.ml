(** Serving-layer tests: the pinned Outcome -> HTTP table, the
    hand-rolled HTTP reader's hostile-input behaviour, token-bucket
    arithmetic, single-flight cache semantics, and an end-to-end
    in-process daemon (this test binary doubles as the serve worker via
    {!Test_shard.worker_main_if_requested}). *)

module J = Exec.Jsonl
module Outcome = Exec.Outcome
module Api = Serve.Api
module Http = Serve.Http

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Outcome -> HTTP: the full taxonomy, pinned                          *)

(** One representative value per variant.  If the taxonomy grows, this
    list stops compiling right next to {!Api.status_of_outcome} — both
    must be extended together, with the new row pinned here. *)
let all_outcomes : (J.t Outcome.t * int * string) list =
  [
    (Outcome.Ok J.Null, 200, "ok");
    ( Outcome.Frontend_error
        { phase = "parse"; loc = Some (1, 2); token = Some "x"; message = "m" },
      400,
      "frontend" );
    (Outcome.Validation_error { message = "m" }, 422, "validation");
    (Outcome.Sim_deadlock { cycle = 7; core = [ "u" ] }, 422, "deadlock");
    ( Outcome.Out_of_fuel { fuel = 9; still_firing = []; exit_tokens = 0 },
      422,
      "out-of-fuel" );
    (Outcome.Job_timeout { cycles = 3 }, 504, "timeout");
    (Outcome.Worker_crash { exn = "e"; backtrace = "" }, 500, "crash");
    ( Outcome.Sanitizer_violation
        {
          cycle = 1;
          unit_label = "u";
          invariant = "eq1-credit-capacity";
          detail = "d";
          repro = None;
        },
      422,
      "sanitizer" );
    (Outcome.Worker_lost { shard = 0; reason = "signal 9" }, 503, "worker-lost");
    (Outcome.Worker_killed { shard = 0; after_s = 1.0 }, 503, "worker-killed");
  ]

let test_outcome_table () =
  List.iter
    (fun (o, status, code) ->
      checki (code ^ " status") status (Api.status_of_outcome o);
      checks (code ^ " code") code (Api.code_of_outcome o))
    all_outcomes;
  (* The list above covers every constructor exactly once. *)
  checki "variant count" 10 (List.length all_outcomes)

let reject_table =
  [
    (Api.Bad_request "x", 400, "bad-request", false);
    (Api.Payload_too_large, 413, "payload-too-large", false);
    (Api.Header_timeout, 408, "header-timeout", false);
    (Api.Route_not_found, 404, "not-found", false);
    (Api.Method_not_allowed, 405, "method-not-allowed", false);
    (Api.Queue_full, 429, "queue-full", true);
    (Api.Quota_requests, 429, "quota-requests", true);
    (Api.Quota_fuel, 429, "quota-fuel", true);
    (Api.Shutting_down, 503, "shutting-down", true);
    (Api.Deadline_exceeded, 504, "deadline-exceeded", false);
    (Api.Journal_lost, 503, "journal-lost", true);
    (Api.Internal "x", 500, "internal-error", false);
  ]

let test_reject_table () =
  List.iter
    (fun (r, status, code, sheddable) ->
      checki (code ^ " status") status (Api.reject_status r);
      checks (code ^ " code") code (Api.reject_code r);
      checkb (code ^ " sheddable") sheddable (Api.reject_sheddable r))
    reject_table;
  checki "reject count" (List.length Api.all_rejects)
    (List.length reject_table);
  (* Codes are unique across both tables: a client can dispatch on the
     code alone. *)
  let codes =
    List.map (fun (_, _, c) -> c) all_outcomes
    @ List.map (fun (_, _, c, _) -> c) reject_table
  in
  checki "codes unique" (List.length codes)
    (List.length (List.sort_uniq compare codes))

(* ------------------------------------------------------------------ *)
(* Job codec: canonicalization and digest stability                    *)

let parse_ok s =
  match J.parse s with Ok j -> j | Error m -> Alcotest.fail m

let test_job_codec () =
  (* Differently-formatted but equal jobs digest equally. *)
  let a =
    Api.job_of_json (parse_ok {|{"kernel":"gsum","seed":1}|})
    |> Result.get_ok
  in
  let b =
    Api.job_of_json
      (parse_ok
         {|{"seed":1,"technique":"crush","kernel":"gsum","strategy":"bb"}|})
    |> Result.get_ok
  in
  checks "digest canonical" (Api.digest a) (Api.digest b);
  (* Differing seed means a different digest. *)
  let c =
    Api.job_of_json (parse_ok {|{"kernel":"gsum","seed":2}|})
    |> Result.get_ok
  in
  checkb "digest seed-sensitive" false (Api.digest a = Api.digest c);
  (* Exactly one payload form. *)
  let reject s =
    match Api.job_of_json (parse_ok s) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("accepted: " ^ s)
  in
  reject {|{"kernel":"gsum","source":"int f(){return 1;}"}|};
  reject {|{}|};
  reject {|{"kernel":"no-such-kernel"}|};
  reject {|{"kernel":"gsum","strategy":"quantum"}|};
  reject {|{"kernel":"gsum","max_cycles":-1}|};
  reject (Fmt.str {|{"kernel":"gsum","max_cycles":%d}|} (Api.max_fuel + 1))

(* ------------------------------------------------------------------ *)
(* HTTP reader under hostile input                                     *)

(** Run the server-side reader against raw bytes shipped over a
    socketpair from a writer thread. *)
let with_raw_request ?max_header ?max_body ~deadline_in raw f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer =
    Thread.create
      (fun () ->
        (try
           ignore (Unix.write_substring b raw 0 (String.length raw))
         with Unix.Unix_error _ -> ());
        (* Half-close so EOF is observable; keep [b] alive meanwhile. *)
        try Unix.shutdown b Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
      ()
  in
  let r =
    Http.read_request ?max_header ?max_body
      ~deadline:(Unix.gettimeofday () +. deadline_in)
      a
  in
  Thread.join writer;
  Unix.close a;
  Unix.close b;
  f r

let test_http_well_formed () =
  let raw =
    "POST /v1/submit HTTP/1.1\r\nHost: x\r\nX-Tenant: t0\r\n\
     Content-Length: 4\r\n\r\nbody"
  in
  with_raw_request ~deadline_in:5.0 raw (function
    | Ok r ->
        checks "meth" "POST" r.Http.meth;
        checks "path" "/v1/submit" r.Http.path;
        checks "body" "body" r.Http.body;
        check
          Alcotest.(option string)
          "tenant header (lowercased)" (Some "t0")
          (Http.header r "x-tenant")
    | Error _ -> Alcotest.fail "well-formed request rejected")

let test_http_malformed () =
  with_raw_request ~deadline_in:5.0 "garbage\r\n\r\n" (function
    | Error (Http.Malformed _) -> ()
    | Error _ -> Alcotest.fail "wrong error class"
    | Ok _ -> Alcotest.fail "garbage accepted")

let test_http_oversized_body () =
  let raw = "POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n" in
  with_raw_request ~max_body:1024 ~deadline_in:5.0 raw (function
    | Error Http.Too_large -> ()
    | Error _ -> Alcotest.fail "wrong error class"
    | Ok _ -> Alcotest.fail "oversized accepted")

let test_http_oversized_header () =
  let raw = "GET /" ^ String.make 4096 'a' ^ " HTTP/1.1\r\n\r\n" in
  with_raw_request ~max_header:256 ~deadline_in:5.0 raw (function
    | Error Http.Too_large -> ()
    | Error _ -> Alcotest.fail "wrong error class"
    | Ok _ -> Alcotest.fail "oversized header accepted")

let test_http_slow_loris () =
  (* Partial headers, then silence: the deadline must fire, not hang. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore (Unix.write_substring b "POST / HTTP/1.1\r\nCon" 0 20);
  let t0 = Unix.gettimeofday () in
  let r = Http.read_request ~deadline:(t0 +. 0.2) a in
  let dt = Unix.gettimeofday () -. t0 in
  Unix.close a;
  Unix.close b;
  (match r with
  | Error Http.Timeout -> ()
  | Error _ -> Alcotest.fail "wrong error class"
  | Ok _ -> Alcotest.fail "incomplete request accepted");
  checkb "bounded wait" true (dt < 2.0)

let test_http_response_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Http.write_response a ~status:429
    ~headers:[ ("Retry-After", "2") ]
    {|{"code":"queue-full"}|};
  Unix.close a;
  (match Http.read_response ~deadline:(Unix.gettimeofday () +. 5.0) b with
  | Ok (status, headers, body) ->
      checki "status" 429 status;
      checks "body" {|{"code":"queue-full"}|} body;
      check
        Alcotest.(option string)
        "retry-after" (Some "2")
        (List.assoc_opt "retry-after" headers)
  | Error _ -> Alcotest.fail "response unreadable");
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Token bucket arithmetic                                             *)

let test_bucket () =
  let b = Serve.Bucket.create ~rate:10.0 ~burst:5.0 ~now:100.0 in
  (* Starts full: five unit takes succeed, the sixth sheds. *)
  for _ = 1 to 5 do
    checkb "take" true (Serve.Bucket.take b ~now:100.0 ~cost:1.0)
  done;
  checkb "empty" false (Serve.Bucket.take b ~now:100.0 ~cost:1.0);
  (* Refill law: 10 tokens/s, so 1 token needs 0.1 s. *)
  check (Alcotest.float 1e-9) "wait one token" 0.1
    (Serve.Bucket.wait_s b ~now:100.0 ~cost:1.0);
  checkb "after refill" true (Serve.Bucket.take b ~now:100.2 ~cost:2.0);
  (* A cost over burst can never succeed. *)
  checkb "cost over burst" false (Serve.Bucket.take b ~now:1000.0 ~cost:6.0);
  (* Backwards clock never mints tokens. *)
  let lvl = Serve.Bucket.level b ~now:1000.0 in
  checkb "clock regression" true (Serve.Bucket.level b ~now:0.0 <= lvl)

(* ------------------------------------------------------------------ *)
(* Cache: single-flight, abandonment, eviction                         *)

(** The daemon's result cache: every value weighs 1. *)
let result_cache n = Serve.Cache.create ~max_weight:n ~weight:(fun _ -> 1)

let test_cache_single_flight () =
  let c = result_cache 8 in
  (match Serve.Cache.admit c "k" with
  | Serve.Cache.Lead -> ()
  | _ -> Alcotest.fail "first caller must lead");
  (match Serve.Cache.admit c "k" with
  | Serve.Cache.Join -> ()
  | _ -> Alcotest.fail "second caller must join");
  Serve.Cache.fulfill c "k" (J.String "v");
  (match Serve.Cache.admit c "k" with
  | Serve.Cache.Hit (J.String "v") -> ()
  | _ -> Alcotest.fail "fulfilled entry must hit");
  (match Serve.Cache.peek c "k" with
  | `Ready (J.String "v") -> ()
  | _ -> Alcotest.fail "peek must see the value")

let test_cache_abandon () =
  let c = result_cache 8 in
  (match Serve.Cache.admit c "k" with
  | Serve.Cache.Lead -> ()
  | _ -> Alcotest.fail "lead");
  ignore (Serve.Cache.admit c "k");
  Serve.Cache.abandon c "k";
  (* Joiners observe the abandonment and the next admit re-leads:
     a transient failure poisons nobody's cache line. *)
  (match Serve.Cache.peek c "k" with
  | `Absent -> ()
  | _ -> Alcotest.fail "abandoned entry must be absent");
  match Serve.Cache.admit c "k" with
  | Serve.Cache.Lead -> ()
  | _ -> Alcotest.fail "abandoned key must re-lead"

let test_cache_eviction () =
  let c = result_cache 2 in
  let fill k =
    (match Serve.Cache.admit c k with
    | Serve.Cache.Lead -> ()
    | _ -> Alcotest.fail "lead");
    Serve.Cache.fulfill c k (J.String k)
  in
  fill "a";
  fill "b";
  fill "c";
  let s = Serve.Cache.stats c in
  checki "live entries" 2 s.Serve.Cache.entries;
  checki "evictions" 1 s.Serve.Cache.evictions;
  (* Never used since it was filled, the oldest entry went first. *)
  (match Serve.Cache.peek c "a" with
  | `Absent -> ()
  | _ -> Alcotest.fail "oldest entry must be evicted");
  (match Serve.Cache.peek c "c" with
  | `Ready _ -> ()
  | _ -> Alcotest.fail "newest entry must survive");
  (* A hit is a use: the least recently used entry goes next, not the
     oldest. *)
  (match Serve.Cache.admit c "b" with
  | Serve.Cache.Hit (J.String "b") -> ()
  | _ -> Alcotest.fail "resident entry must hit");
  fill "d";
  (match Serve.Cache.peek c "c" with
  | `Absent -> ()
  | _ -> Alcotest.fail "least recently used entry must be evicted");
  match Serve.Cache.peek c "b" with
  | `Ready _ -> ()
  | _ -> Alcotest.fail "recently hit entry must survive"

(* ------------------------------------------------------------------ *)
(* Digest split: the circuit half keys the image cache                 *)

let mk_job ?(kernel = "gsum") ?(strategy = "bb") ?(technique = "crush")
    ?(seed = 1) ?(max_cycles = 200_000) ?(sanitize = false) () =
  {
    Api.payload = Api.Kernel { name = kernel };
    strategy;
    technique;
    seed;
    max_cycles;
    sanitize;
  }

let test_digest_split () =
  let a = mk_job ~seed:1 () and b = mk_job ~seed:2 () in
  (* Seed changes the run half only: one compiled image serves both. *)
  checks "circuit digest seed-invariant" (Api.circuit_digest a)
    (Api.circuit_digest b);
  checkb "run digest seed-sensitive" false
    (Api.run_digest a = Api.run_digest b);
  checkb "full digest seed-sensitive" false (Api.digest a = Api.digest b);
  (* Technique changes the elaborated graph: a different image. *)
  let c = mk_job ~technique:"naive" () in
  checkb "circuit digest technique-sensitive" false
    (Api.circuit_digest a = Api.circuit_digest c);
  (* Sanitize is a run property: monitored and unmonitored runs of one
     circuit could share an image (routing keeps them apart anyway). *)
  let d = mk_job ~sanitize:true () in
  checks "circuit digest sanitize-invariant" (Api.circuit_digest a)
    (Api.circuit_digest d);
  checkb "run digest sanitize-sensitive" false
    (Api.run_digest a = Api.run_digest d)

(* ------------------------------------------------------------------ *)
(* Image cache: single-flight, abandonment, byte-bounded LRU           *)

(** The batch tier's image cache: every image weighs its bytes. *)
let image_cache max_bytes =
  Serve.Cache.create ~max_weight:max_bytes ~weight:Sim.Engine.image_bytes

let compile_image job =
  match Serve.Job.compile job with
  | Ok g -> Sim.Engine.image g
  | Error _ -> Alcotest.fail "image compile failed"

let test_imagecache_single_flight () =
  let c = image_cache (64 * 1024 * 1024) in
  (match Serve.Cache.admit c "k" with
  | Serve.Cache.Lead -> ()
  | _ -> Alcotest.fail "first caller must lead");
  (match Serve.Cache.admit c "k" with
  | Serve.Cache.Join -> ()
  | _ -> Alcotest.fail "second caller must join");
  (* A routing probe must not see the pending compile as warm, and must
     not plant a Pending entry of its own. *)
  (match Serve.Cache.lookup c "k" with
  | None -> ()
  | Some _ -> Alcotest.fail "pending compile must not read as warm");
  (match Serve.Cache.lookup c "other" with
  | None -> ()
  | Some _ -> Alcotest.fail "absent key must miss");
  (match Serve.Cache.peek c "other" with
  | `Absent -> ()
  | _ -> Alcotest.fail "lookup must not insert pending entries");
  let img = compile_image (mk_job ()) in
  Serve.Cache.fulfill c "k" img;
  (match Serve.Cache.admit c "k" with
  | Serve.Cache.Hit _ -> ()
  | _ -> Alcotest.fail "fulfilled entry must hit");
  (match Serve.Cache.peek c "k" with
  | `Ready _ -> ()
  | _ -> Alcotest.fail "peek must see the image");
  let s = Serve.Cache.stats c in
  checkb "hit counted" true (s.Serve.Cache.hits >= 1);
  checkb "join counted" true (s.Serve.Cache.joins >= 1);
  checki "resident entries" 1 s.Serve.Cache.entries;
  checki "resident bytes" (Sim.Engine.image_bytes img)
    s.Serve.Cache.weight

let test_imagecache_abandon () =
  let c = image_cache 1024 in
  (match Serve.Cache.admit c "k" with
  | Serve.Cache.Lead -> ()
  | _ -> Alcotest.fail "lead");
  ignore (Serve.Cache.admit c "k");
  Serve.Cache.abandon c "k";
  (* A transiently failed compile poisons nothing: joiners observe the
     abandonment and the next admit re-leads. *)
  (match Serve.Cache.peek c "k" with
  | `Absent -> ()
  | _ -> Alcotest.fail "abandoned entry must be absent");
  match Serve.Cache.admit c "k" with
  | Serve.Cache.Lead -> ()
  | _ -> Alcotest.fail "abandoned key must re-lead"

let test_imagecache_eviction () =
  let ia = compile_image (mk_job ()) in
  let ib = compile_image (mk_job ~technique:"naive" ()) in
  let ic = compile_image (mk_job ~kernel:"gsumif" ()) in
  let bytes = Sim.Engine.image_bytes in
  (* All three cannot be resident at once; any two can. *)
  let budget = bytes ia + bytes ib + bytes ic - 1 in
  let c = image_cache budget in
  let fill k img =
    (match Serve.Cache.admit c k with
    | Serve.Cache.Lead -> ()
    | _ -> Alcotest.fail "lead");
    Serve.Cache.fulfill c k img
  in
  fill "a" ia;
  fill "b" ib;
  (* Touch [a]: [b] becomes least-recently-used. *)
  (match Serve.Cache.lookup c "a" with
  | Some _ -> ()
  | None -> Alcotest.fail "resident image must hit");
  fill "c" ic;
  let s = Serve.Cache.stats c in
  checkb "eviction happened" true (s.Serve.Cache.evictions >= 1);
  checkb "bytes within budget" true (s.Serve.Cache.weight <= budget);
  (match Serve.Cache.peek c "b" with
  | `Absent -> ()
  | _ -> Alcotest.fail "least-recently-touched entry must be evicted");
  (match Serve.Cache.peek c "c" with
  | `Ready _ -> ()
  | _ -> Alcotest.fail "just-fulfilled image must never be the victim");
  match Serve.Cache.peek c "a" with
  | `Ready _ -> ()
  | _ -> Alcotest.fail "recently-touched image must survive"

(* ------------------------------------------------------------------ *)
(* Tier routing: the pinned admission table                            *)

let test_tier_routing () =
  let module B = Serve.Batch in
  let row ~warm ~sanitize ~deadline_left_s ~queue expect label =
    checks label (B.tier_name expect)
      (B.tier_name
         (B.tier_of ~warm ~sanitize ~deadline_left_s ~long_deadline_s:15.0
            ~queue ~watermark:8))
  in
  (* The one batch-admissible combination... *)
  row ~warm:true ~sanitize:false ~deadline_left_s:5.0 ~queue:0 B.Batch_tier
    "warm unmonitored short under-watermark -> batch";
  (* ...and each isolation reason, alone, forcing the worker tier. *)
  row ~warm:false ~sanitize:false ~deadline_left_s:5.0 ~queue:0 B.Worker_tier
    "cold (no compiled image) -> worker";
  row ~warm:true ~sanitize:true ~deadline_left_s:5.0 ~queue:0 B.Worker_tier
    "sanitized (monitored) -> worker";
  row ~warm:true ~sanitize:false ~deadline_left_s:30.0 ~queue:0 B.Worker_tier
    "long deadline -> worker";
  row ~warm:true ~sanitize:false ~deadline_left_s:5.0 ~queue:8 B.Worker_tier
    "at watermark -> worker (spill)";
  (* Boundaries: the deadline threshold itself is still admissible; the
     watermark itself is not. *)
  row ~warm:true ~sanitize:false ~deadline_left_s:15.0 ~queue:7 B.Batch_tier
    "deadline exactly at threshold -> batch";
  row ~warm:true ~sanitize:false ~deadline_left_s:15.001 ~queue:0
    B.Worker_tier "deadline just over threshold -> worker";
  row ~warm:true ~sanitize:false ~deadline_left_s:5.0 ~queue:9 B.Worker_tier
    "over watermark -> worker"

(* Batch tier == worker tier: the same job over a cached image must
   classify identically to a fresh compile-and-run — same API code,
   same payload JSON, byte for byte.  This is the property that lets
   the router pick a tier on load grounds alone. *)
let prop_tier_equivalence =
  let gen =
    QCheck2.Gen.(
      triple
        (oneofl [ "gsum"; "gsumif" ])
        (oneofl
           [
             ("bb", "naive");
             ("bb", "crush");
             ("bb", "inorder");
             ("fast", "crush");
           ])
        (int_range 0 10_000))
  in
  let print (k, (s, t), seed) = Fmt.str "%s/%s/%s seed=%d" k s t seed in
  Helpers.qtest ~count:12 ~print "batch/worker tier equivalence" gen
    (fun (kernel, (strategy, technique), seed) ->
      let job = mk_job ~kernel ~strategy ~technique ~seed () in
      let deadline () = false in
      let worker = Serve.Job.run ~deadline job in
      let batch =
        match Serve.Job.compile job with
        | Ok g -> Serve.Job.run_on_image ~deadline job (Sim.Engine.image g)
        | Error o -> o
      in
      let render o = J.to_string (Outcome.to_json Fun.id o) in
      Api.code_of_outcome worker = Api.code_of_outcome batch
      && render worker = render batch)

(* ------------------------------------------------------------------ *)
(* Workers: a lost worker frees its slot promptly                      *)

(* A SIGKILLed worker must cost exactly its own request, promptly: the
   loss path SIGKILLs-then-reaps the dead pid and releases the slot
   immediately, never serializing the next admission behind the
   deadline+grace window.  grace_s is set prohibitively high so a
   regression shows up as this test blowing its wall-clock bound. *)
let test_workers_prompt_release () =
  let w =
    Serve.Workers.create ~binary:Sys.executable_name
      ~argv_tail:[ "__worker"; "--kind"; "serve" ]
      ~heartbeat_s:0.0 ~grace_s:60.0 ~n:1
  in
  Fun.protect
    ~finally:(fun () -> ignore (Serve.Workers.shutdown w ~timeout_s:5.0))
    (fun () ->
      let deadline = Unix.gettimeofday () +. 60.0 in
      let spec seed = Api.job_to_json (mk_job ~seed ()) in
      let take () =
        match Serve.Workers.acquire w ~deadline with
        | Some s -> s
        | None -> Alcotest.fail "no slot"
      in
      (* Warm the slot so there is a live worker to kill. *)
      let slot = take () in
      let o, _ =
        Serve.Workers.run_job w slot ~key:"warm" ~spec:(spec 1) ~deadline
      in
      checks "warm run" "ok" (Api.code_of_outcome o);
      Serve.Workers.release w slot;
      (match Serve.Workers.pids w with
      | pid :: _ -> Unix.kill pid Sys.sigkill
      | [] -> Alcotest.fail "no live worker to kill");
      (* Let the kernel close the dead worker's pipes, so the next job's
         send meets a broken pipe: that must classify as worker-lost,
         not take this process down with SIGPIPE. *)
      Unix.sleepf 0.1;
      let t0 = Unix.gettimeofday () in
      let slot = take () in
      let o, _ =
        Serve.Workers.run_job w slot ~key:"lost" ~spec:(spec 2) ~deadline
      in
      checks "killed worker classifies" "worker-lost" (Api.code_of_outcome o);
      Serve.Workers.release w slot;
      (* The very next job is admitted and completes without waiting on
         any part of the 60 s deadline or the 60 s grace. *)
      let slot = take () in
      let o, _ =
        Serve.Workers.run_job w slot ~key:"next" ~spec:(spec 3) ~deadline
      in
      checks "next job admitted after loss" "ok" (Api.code_of_outcome o);
      Serve.Workers.release w slot;
      let dt = Unix.gettimeofday () -. t0 in
      checkb "prompt release (no deadline+grace stall)" true (dt < 20.0))

(* ------------------------------------------------------------------ *)
(* End-to-end: a real daemon, in process                               *)

let post ~port ?(headers = []) body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Http.write_request fd ~meth:"POST" ~path:"/v1/submit" ~headers body;
      match Http.read_response ~deadline:(Unix.gettimeofday () +. 60.0) fd with
      | Ok (status, _, body) -> (status, parse_ok body)
      | Error _ -> Alcotest.fail "transport error")

let get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Http.write_request fd ~meth:"GET" ~path "";
      match Http.read_response ~deadline:(Unix.gettimeofday () +. 30.0) fd with
      | Ok (status, _, body) -> (status, body)
      | Error _ -> Alcotest.fail "transport error")

let field j k = J.member k j

let str_field j k = Option.bind (field j k) J.to_str

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_daemon_end_to_end () =
  (* This test binary is its own serve worker (see
     {!Test_shard.worker_main_if_requested}). *)
  let cfg =
    {
      (Serve.Server.default_config ~binary:Sys.executable_name) with
      Serve.Server.workers = 1;
      heartbeat_s = 0.0 (* timing-free under CI load *);
      header_timeout_s = 1.0;
      stream_period_s = 0.2 (* fast samples for the stream check *);
    }
  in
  let t = Serve.Server.create cfg in
  let port = Serve.Server.port t in
  let drain = ref None in
  let th = Thread.create (fun () -> drain := Some (Serve.Server.run t)) () in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_stop t;
      Thread.join th)
    (fun () ->
      let hot = {|{"kernel":"gsum","seed":1,"deadline_ms":30000}|} in
      (* Miss, then hit: same canonical digest. *)
      let s1, j1 = post ~port hot in
      checki "first submit status" 200 s1;
      checks "first submit code" "ok"
        (Option.value ~default:"?" (str_field j1 "code"));
      checks "first submit cache" "miss"
        (Option.value ~default:"?" (str_field j1 "cache"));
      let s2, j2 = post ~port hot in
      checki "second submit status" 200 s2;
      checks "second submit cache" "hit"
        (Option.value ~default:"?" (str_field j2 "cache"));
      checks "digest stable"
        (Option.value ~default:"a" (str_field j1 "digest"))
        (Option.value ~default:"b" (str_field j2 "digest"));
      checks "cold run tier" "worker"
        (Option.value ~default:"?" (str_field j1 "tier"));
      (* The worker-tier success primed the image cache, so a fresh
         seed on the same circuit with a short deadline routes to the
         in-process batch tier.  Priming happens after the response is
         on the wire, so poll briefly. *)
      let rec try_batch seed tries =
        let body =
          Fmt.str {|{"kernel":"gsum","seed":%d,"deadline_ms":10000}|} seed
        in
        let s, j = post ~port body in
        checki "batch-tier status" 200 s;
        let tier = Option.value ~default:"?" (str_field j "tier") in
        if tier <> "batch" && tries > 0 then (
          Unix.sleepf 0.05;
          try_batch (seed + 1) (tries - 1))
        else checks "warm short-deadline job runs on the batch tier" "batch"
            tier
      in
      try_batch 100 50;
      (* Unparseable body. *)
      let s, j = post ~port "{" in
      checki "bad body status" 400 s;
      checks "bad body code" "bad-request"
        (Option.value ~default:"?" (str_field j "code"));
      (* Unknown kernel: rejected at admission, no worker involved. *)
      let s, j = post ~port {|{"kernel":"no-such-kernel"}|} in
      checki "unknown kernel status" 400 s;
      checks "unknown kernel code" "bad-request"
        (Option.value ~default:"?" (str_field j "code"));
      (* Deadline zero: expired before any worker could take it. *)
      let s, j = post ~port {|{"kernel":"gsum","deadline_ms":0}|} in
      checki "deadline-0 status" 504 s;
      checks "deadline-0 code" "deadline-exceeded"
        (Option.value ~default:"?" (str_field j "code"));
      (* Routing. *)
      let s, _ = get ~port "/nope" in
      checki "unknown route" 404 s;
      let s, _ = post ~port:(Serve.Server.port t) hot in
      checki "sanity: submit still 200" 200 s;
      (* Kill the only worker while idle: the next cold request pays
         with worker-lost (503), and exactly that one — the daemon then
         respawns and keeps serving. *)
      (match Serve.Server.worker_pids t with
      | pid :: _ ->
          Unix.kill pid Sys.sigkill;
          (* Give the kernel a beat to tear the pipes down. *)
          Unix.sleepf 0.05;
          let s, j =
            post ~port {|{"kernel":"gsum","seed":777,"deadline_ms":30000}|}
          in
          checki "post-kill status" 503 s;
          checks "post-kill code" "worker-lost"
            (Option.value ~default:"?" (str_field j "code"));
          let s, j =
            post ~port {|{"kernel":"gsum","seed":778,"deadline_ms":30000}|}
          in
          checki "respawn status" 200 s;
          checks "respawn code" "ok"
            (Option.value ~default:"?" (str_field j "code"))
      | [] -> Alcotest.fail "no live worker to kill");
      (* Transient outcomes must not be cached: the worker-lost request
         re-runs (and succeeds) on resubmit. *)
      let s, j =
        post ~port {|{"kernel":"gsum","seed":777,"deadline_ms":30000}|}
      in
      checki "transient not cached: status" 200 s;
      checks "transient not cached: cache" "miss"
        (Option.value ~default:"?" (str_field j "cache"));
      (* Stats surface the lost worker and the cache hit. *)
      let s, body = get ~port "/v1/stats" in
      checki "stats status" 200 s;
      let stats = parse_ok body in
      let int_at path =
        let rec go j = function
          | [] -> J.to_int j
          | k :: rest -> Option.bind (J.member k j) (fun j -> go j rest)
        in
        Option.value ~default:(-1) (go stats path)
      in
      checkb "stats: a worker was lost" true (int_at [ "workers"; "lost" ] >= 1);
      checkb "stats: cache hits" true (int_at [ "cache"; "hits" ] >= 1);
      checkb "stats: batch tier ran" true (int_at [ "batch"; "runs" ] >= 1);
      checkb "stats: image-cache hit" true
        (int_at [ "image_cache"; "hits" ] >= 1);
      (* Live stats stream: the chunked NDJSON tail carries samples. *)
      let sfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close sfd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect sfd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          Http.write_request sfd ~meth:"GET" ~path:"/v1/stats/stream" "";
          let buf = Buffer.create 1024 in
          let chunk = Bytes.create 4096 in
          let stop_at = Unix.gettimeofday () +. 10.0 in
          let rec pump () =
            if
              Unix.gettimeofday () < stop_at
              && not (contains (Buffer.contents buf) "image_hit_rate")
            then
              match Unix.select [ sfd ] [] [] 0.25 with
              | [ _ ], _, _ ->
                  let n =
                    try Unix.read sfd chunk 0 (Bytes.length chunk)
                    with Unix.Unix_error _ -> 0
                  in
                  if n > 0 then (
                    Buffer.add_subbytes buf chunk 0 n;
                    pump ())
              | _ -> pump ()
          in
          pump ();
          let got = Buffer.contents buf in
          checkb "stream: chunked transfer" true
            (contains got "Transfer-Encoding: chunked");
          checkb "stream: sample observed" true
            (contains got "image_hit_rate"));
      (* Graceful drain: ask the accept loop to stop and join. *)
      Serve.Server.request_stop t);
  match !drain with
  | None -> Alcotest.fail "server thread never returned a drain report"
  | Some d ->
      checki "drain conns" 0 d.Serve.Server.conns_left;
      checki "drain workers" 0 d.Serve.Server.workers_alive;
      checkb "drain fds" true (d.Serve.Server.leaked_fds <= 0)

(* One cold circuit is one image-cache miss.  The request's routing
   probe counts it; priming the cache after the worker-tier run counts
   nothing, so the next seed of the same circuit is the one hit. *)
let test_image_cache_counts_once () =
  let cfg =
    {
      (Serve.Server.default_config ~binary:Sys.executable_name) with
      Serve.Server.workers = 1;
      heartbeat_s = 0.0;
      header_timeout_s = 1.0;
    }
  in
  let t = Serve.Server.create cfg in
  let port = Serve.Server.port t in
  let th = Thread.create (fun () -> ignore (Serve.Server.run t)) () in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_stop t;
      Thread.join th)
    (fun () ->
      let int_at path =
        let _, body = get ~port "/v1/stats" in
        let rec go j = function
          | [] -> J.to_int j
          | k :: rest -> Option.bind (J.member k j) (fun j -> go j rest)
        in
        Option.value ~default:(-1) (go (parse_ok body) path)
      in
      let submit seed =
        let s, j =
          post ~port
            (Fmt.str {|{"kernel":"gsum","seed":%d,"deadline_ms":10000}|} seed)
        in
        checki "status" 200 s;
        Option.value ~default:"?" (str_field j "tier")
      in
      checks "cold run tier" "worker" (submit 1);
      (* Priming runs after the response is on the wire; wait for it
         through /v1/stats, which counts nothing. *)
      let rec primed tries =
        int_at [ "batch"; "primes" ] >= 1
        || (tries > 0 && (Unix.sleepf 0.05; primed (tries - 1)))
      in
      checkb "image cache primed" true (primed 200);
      checks "new seed runs on the batch tier" "batch" (submit 2);
      checki "image-cache misses" 1 (int_at [ "image_cache"; "misses" ]);
      checki "image-cache hits" 1 (int_at [ "image_cache"; "hits" ]);
      checki "image-cache entries" 1 (int_at [ "image_cache"; "entries" ]))

(* A kernel the frontend accepts but code generation refuses is the
   client's error, like a parse error: 400, not a 500 crash. *)
let test_codegen_error_is_400 () =
  let source =
    "void k(float x, float A[4]) { for (int i = 0; i < 4; i++) { A[i] = \
     A[i] + 1.0; } }"
  in
  match Minic.Codegen.compile_source source with
  | _ -> Alcotest.fail "a scalar parameter compiled"
  | exception e ->
      let o = Outcome.of_exn e in
      checks "class" "frontend" (Api.code_of_outcome o);
      checki "status" 400 (Api.status_of_outcome o)

let suite =
  [
    Alcotest.test_case "outcome->http table (exhaustive)" `Quick
      test_outcome_table;
    Alcotest.test_case "reject table" `Quick test_reject_table;
    Alcotest.test_case "job codec and digest" `Quick test_job_codec;
    Alcotest.test_case "http: well-formed" `Quick test_http_well_formed;
    Alcotest.test_case "http: malformed" `Quick test_http_malformed;
    Alcotest.test_case "http: oversized body" `Quick test_http_oversized_body;
    Alcotest.test_case "http: oversized header" `Quick
      test_http_oversized_header;
    Alcotest.test_case "http: slow-loris deadline" `Quick test_http_slow_loris;
    Alcotest.test_case "http: response roundtrip" `Quick
      test_http_response_roundtrip;
    Alcotest.test_case "bucket refill law" `Quick test_bucket;
    Alcotest.test_case "cache single-flight" `Quick test_cache_single_flight;
    Alcotest.test_case "cache abandonment" `Quick test_cache_abandon;
    Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
    Alcotest.test_case "digest split (circuit vs run)" `Quick
      test_digest_split;
    Alcotest.test_case "image cache single-flight" `Quick
      test_imagecache_single_flight;
    Alcotest.test_case "image cache abandonment" `Quick
      test_imagecache_abandon;
    Alcotest.test_case "image cache byte-bounded eviction" `Quick
      test_imagecache_eviction;
    Alcotest.test_case "batch tier routing table" `Quick test_tier_routing;
    prop_tier_equivalence;
    Alcotest.test_case "workers: prompt release on loss" `Slow
      test_workers_prompt_release;
    Alcotest.test_case "daemon end-to-end" `Slow test_daemon_end_to_end;
    Alcotest.test_case "image cache: one miss per cold circuit" `Slow
      test_image_cache_counts_once;
    Alcotest.test_case "codegen error is a 400" `Quick test_codegen_error_is_400;
  ]
