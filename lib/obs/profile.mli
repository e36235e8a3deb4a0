(** The human-readable profile report of a {!Metrics} report: measured
    vs assumed II per loop, the most contended shared unit, credit
    pressure, top stalled channels, busiest units, and buffer
    occupancy. *)

(** [top] bounds the stalled-channel and busiest-unit lists (default 8). *)
val pp_report : ?top:int -> Metrics.report Fmt.t
