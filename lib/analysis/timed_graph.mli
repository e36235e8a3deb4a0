(** Timed-token abstraction of a dataflow circuit: every channel becomes
    an edge annotated with its source's pipeline latency and the tokens
    initially present (buffer pre-population; one circulating token per
    loop backedge, recognized via the builder's loop-header marks). *)

type edge = { src : int; dst : int; latency : int; tokens : int }

(** Pipeline latency contributed by a unit to its outgoing edges. *)
val unit_latency : Dataflow.Types.kind -> int

(** Initial tokens contributed by a unit (buffer pre-population). *)
val unit_initial_tokens : Dataflow.Types.kind -> int

(** Is this channel a loop backedge (cyclic data input of a marked
    loop-header mux)? *)
val is_backedge : Dataflow.Graph.t -> Dataflow.Graph.channel -> bool

(** The timed edge of one channel: the only definition of its latency
    and tokens. *)
val of_channel : Dataflow.Graph.t -> Dataflow.Graph.channel -> edge

(** Edges of the whole timed graph, one per channel, in reverse channel
    order. *)
val edges : Dataflow.Graph.t -> edge list
