(** Every metric the benchmark prints, with its unit.  BENCHMARK.json
    lists the same names; the contract test keeps the two in step. *)

(** End-to-end metrics, printed by every untraced run.  One operation
    is one compile-and-share (optimize), one simulate-and-verify
    (simulate) or one HTTP request (serve-batch, serve-worker). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("op_geomean_ms", "ms");
    ("throughput_ops_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

(** Per-layer metrics, printed by every traced run.  A layer the
    workload never calls reads 0. *)
let per_layer =
  [
    ("minic.parse_ms", "ms");
    ("minic.sema_ms", "ms");
    ("minic.codegen_ms", "ms");
    ("minic.units", "count");
    ("crush.context_ms", "ms");
    ("crush.infer_ms", "ms");
    ("crush.share_ms", "ms");
    ("crush.groups", "count");
    ("dataflow.validate_ms", "ms");
    ("inorder.share_ms", "ms");
    ("inorder.evaluations", "count");
    ("crush.flow_ms", "ms");
    ("inorder.flow_ms", "ms");
    ("opt.ratio", "x");
    ("engine.image_ms", "ms");
    ("engine.run_ms", "ms");
    ("engine.ns_per_cycle", "ns");
    ("engine.cycles", "count");
    ("engine.transfers", "count");
    ("engine.cycles_per_s", "1/s");
    ("sanitizer.cycles_per_s", "1/s");
    ("harness.overhead_ms", "ms");
    ("sanitizer.overhead_x", "x");
    ("serve.hit_ms_p50", "ms");
    ("serve.batch_ms_p50", "ms");
    ("serve.worker_ms_p50", "ms");
    ("serve.api_us", "us");
    ("serve.run_on_image_ms", "ms");
    ("serve.overhead_ms", "ms");
    ("serve.job_compile_ms", "ms");
    ("serve.job_run_ms", "ms");
    ("serve.run_job_ms", "ms");
    ("serve.ipc_ms", "ms");
    ("exec.journal_append_us", "us");
    ("serve.result_cache_hit_rate", "ratio");
    ("serve.image_cache_hit_rate", "ratio");
    ("serve.batch_share", "ratio");
    ("serve.batch_spills", "count");
    ("serve.primes", "count");
    ("serve.worker_respawns", "count");
    ("serve.shed", "count");
    ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count");
  ]

let workloads = [ "optimize"; "simulate"; "serve-batch"; "serve-worker" ]

(** Metric names are [A-Za-z0-9_.-]+ and start with a letter or digit. *)
let valid_name s =
  let alnum = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
    | _ -> false
  in
  String.length s > 0
  && String.length s <= 64
  && alnum s.[0]
  && String.for_all (fun c -> alnum c || c = '_' || c = '.' || c = '-') s

(** The result line: [catalog] names every metric to print, [values]
    holds the measured ones (missing ones read 0). *)
let result_json ~correct ~attempted ~failed ~catalog values =
  let module J = Exec.Jsonl in
  let metric (name, unit) =
    let v = Option.value ~default:0.0 (List.assoc_opt name values) in
    (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ])
  in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ("metrics", J.Obj (List.map metric catalog));
       ])
