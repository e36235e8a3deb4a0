(** Metrics pass over the observability event stream.

    Attach {!sink} to a run, then {!finish} to fold the stream into a
    {!report}: per-unit utilization, per-channel stall attribution,
    credit-counter pressure, arbiter grant histograms, time-weighted
    buffer occupancy, and measured-vs-assumed II per CFG loop.  The
    report serializes to a single JSONL record via {!report_to_json}
    so campaigns can checkpoint it. *)

type unit_row = {
  uid : int;
  ulabel : string;
  ukind : string;            (** kind slug, e.g. ["operator:fmul"] *)
  fires : int;               (** cycles the unit's sequential state advanced *)
  utilization : float;       (** fires / total cycles *)
}

type chan_row = {
  cid : int;
  src : string;              (** "label.port" *)
  dst : string;
  transfers : int;
  stalls : int;              (** cycles valid && not ready *)
  by_reason : (string * int) list;
      (** stall cycles keyed by {!Sim.Engine.string_of_stall_reason}
          slug; only non-zero reasons, slug-sorted *)
}

type credit_row = {
  kuid : int;
  klabel : string;
  grants : int;              (** credits handed out (counter decrements) *)
  returns : int;             (** credits returned (counter increments) *)
  exhausted : int;           (** cycles spent at zero credits *)
}

type arb_row = {
  auid : int;
  alabel : string;
  grant_hist : int list;     (** grants per input port, port order *)
}

type buffer_row = {
  buid : int;
  blabel : string;
  slots : int;
  avg_occ : float;           (** time-weighted mean occupancy *)
  p50_occ : int;
  p95_occ : int;
  max_occ : int;
}

(** One CFG loop.  A loop can have several header muxes, each firing
    once per iteration; the row reports the one with the largest mean
    inter-fire interval (the last in unit order on a tie), and its II is
    the loop's measured II.  A loop with no tagged header falls back to
    its most fired unit. *)
type loop_row = {
  loop_id : int;
  header : string;           (** label of the reported header mux *)
  iterations : int;          (** its fire count *)
  measured_ii : float;
      (** its mean inter-fire distance, the largest over the loop's
          header muxes; 0 if < 2 fires *)
  assumed_ii : float option; (** CFC analysis bound; [None] if unbounded *)
}

type report = {
  kernel : string;
  total_cycles : int;
  units : unit_row list;
  channels : chan_row list;
  credits : credit_row list;
  arbiters : arb_row list;
  buffers : buffer_row list;
  loops : loop_row list;
}

type t

(** [create g] prepares an accumulator for circuit [g]. *)
val create : Dataflow.Graph.t -> t

(** Attach as [Sim.Engine.run ~sink:(sink t)]. *)
val sink : t -> Sim.Engine.sink

(** Fold the accumulated stream into a report.  [total_cycles] is the
    run's cycle count ({!Sim.Engine.stats}); [kernel] names the record.
    Loop rows are computed for every loop id tagged in the graph. *)
val finish : t -> kernel:string -> total_cycles:int -> report

val report_to_json : report -> Exec.Jsonl.t

(** Inverse of {!report_to_json}; [Error] names the first bad field. *)
val report_of_json : Exec.Jsonl.t -> (report, string) result

(** Convenience: top [n] most-stalled channels, busiest first. *)
val top_stalled : report -> int -> chan_row list

(** The arbiter whose grant histogram shows the most contention (largest
    total grant count with ≥ 2 active ports), if any. *)
val most_contended : report -> arb_row option
