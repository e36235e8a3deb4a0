(** What one workload run reports, and the helpers every workload uses
    to set up, time its window and summarize it.

    A window is a sequence of units -- an optimize round, a simulate
    pass, a serve-worker pass, a serve-batch time slice -- that each run
    the same mix of operations.  The first unit warms caches and heaps
    and is left out of the metrics. *)

(** Where the benchmark writes journals, traces and operation dumps,
    relative to the repository root. *)
let out_dir = Filename.concat "_build" "bench"

(** One unit of a window: its operations as [(input class, ms)], how
    many of them succeeded, and its wall time. *)
type unit_ops = { ops : (string * float) list; ok : int; secs : float }

type outcome = {
  attempted : int;
  failed : int;
  errors : string list;  (** failed correctness gates, one line each *)
  units : unit_ops list;
  e2e : (string * float) list;
  layers : (string * float) list;
      (** per-layer values measured in the timed window itself *)
}

(** Run [setup] [n] times; return the last result and the median
    duration.  Every earlier result is passed to [dispose]. *)
let repeat_setup ?(dispose = ignore) n setup =
  let rec go i times =
    let r, dt = Measure.time setup in
    if i >= n then (r, Measure.median (dt :: times))
    else begin
      dispose r;
      go (i + 1) (dt :: times)
    end
  in
  go 1 []

(** Run the warm-up unit [unit 0], then [unit 1], [unit 2], ... until
    [seconds] have passed since the warm-up and at least [min_units]
    measured units ran; [unit k] returns its operations and how many
    succeeded. *)
let whole_units ~seconds ~min_units unit =
  let run k =
    let (ops, ok), secs = Measure.time (fun () -> unit k) in
    { ops; ok; secs }
  in
  let warm = run 0 in
  let t0 = Measure.now () in
  let rec go k acc =
    if k > min_units && Measure.now () -. t0 >= seconds then List.rev acc
    else go (k + 1) (run k :: acc)
  in
  go 1 [ warm ]

let all_ops units = List.concat_map (fun u -> u.ops) units

(** The end-to-end metrics shared by every workload, over every unit but
    the warm-up.  Percentiles and throughput are taken within each unit
    and the best unit is reported, and [op_geomean_ms] takes each
    input's best time: the host slows by up to 2x for seconds at a time,
    and the best observation is the one that repeats from run to run. *)
let e2e ~setup_s ~units ~peak_rss_mb =
  let units = List.tl units in
  let lowest f =
    List.fold_left (fun acc u -> Float.min acc (f u)) infinity units
  in
  let highest f = List.fold_left (fun acc u -> Float.max acc (f u)) 0.0 units in
  let pct p u = Measure.percentile p (List.map snd u.ops) in
  [
    ("setup_s", setup_s);
    ("latency_p50_ms", lowest (pct 50.0));
    ("latency_p90_ms", lowest (pct 90.0));
    ("op_geomean_ms", Measure.geomean_of_best (all_ops units));
    ("throughput_ops_per_s", highest (fun u -> float_of_int u.ok /. u.secs));
    ("peak_rss_mb", peak_rss_mb);
  ]

(** Minor-heap words (millions) and major collections since [start]. *)
let gc_layers (start : Gc.stat) =
  let s = Gc.quick_stat () in
  [
    ("gc.minor_mwords", (s.Gc.minor_words -. start.Gc.minor_words) /. 1e6);
    ( "gc.major_collections",
      float_of_int (s.Gc.major_collections - start.Gc.major_collections) );
  ]

(** [check errors cond msg] records [msg] when [cond] is false. *)
let check errors cond msg = if not cond then errors := msg :: !errors

(** Every operation of the window, one line each: unit, unit seconds,
    input class, ms. *)
let write_ops path units =
  Out_channel.with_open_text path (fun oc ->
      List.iteri
        (fun k u ->
          List.iter
            (fun (cls, ms) ->
              Printf.fprintf oc "%d\t%.6f\t%s\t%.6f\n" k u.secs cls ms)
            u.ops)
        units)
