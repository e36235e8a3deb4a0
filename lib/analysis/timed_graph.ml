(** Timed-token view of a dataflow circuit.

    For throughput analysis the circuit is abstracted as a timed event
    graph: every channel becomes an edge annotated with the pipeline
    latency of its source unit and the number of tokens initially present
    on it.  Initial tokens come from buffer pre-population and from loop
    backedges (in steady state exactly one token circulates per value
    ring; the builder routes backedges into mux input port 1, which is how
    we recognize them). *)

open Dataflow

type edge = { src : int; dst : int; latency : int; tokens : int }

let unit_latency (k : Types.kind) =
  match k with
  | Types.Operator { latency; _ } -> latency
  | Types.Load { latency; _ } -> latency
  | Types.Store _ -> 1
  | Types.Buffer { transparent = false; _ } -> 1
  | _ -> 0

let unit_initial_tokens (k : Types.kind) =
  match k with Types.Buffer { init; _ } -> List.length init | _ -> 0

(** Is channel [c] a loop backedge (enters a loop-header mux's cyclic
    data input)?  Header muxes are marked by the circuit builder; plain
    reconvergence muxes (if/else diamonds) carry no initial tokens. *)
let is_backedge g (c : Graph.channel) =
  match Graph.kind_of g c.dst.unit_id with
  | Types.Mux _ -> c.dst.port = 1 && Graph.is_loop_header g c.dst.unit_id
  | _ -> false

let of_channel g (c : Graph.channel) =
  let u = c.src.unit_id in
  let k = Graph.kind_of g u in
  {
    src = u;
    dst = c.dst.unit_id;
    latency = unit_latency k;
    tokens = unit_initial_tokens k + (if is_backedge g c then 1 else 0);
  }

(** Edges of the whole timed graph, in reverse channel order. *)
let edges g =
  let acc = ref [] in
  Graph.iter_channels g (fun c -> acc := of_channel g c :: !acc);
  !acc
