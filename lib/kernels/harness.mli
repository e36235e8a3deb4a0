(** Compile–simulate–verify harness: the ModelSim role in the paper's
    methodology.  Runs a circuit on deterministic inputs and checks every
    array against the software reference — confirming both functional
    correctness and deadlock freedom (Section 6.1). *)

type verdict = {
  status : Sim.Engine.status;
  cycles : int;
  functionally_correct : bool;
  mismatches : (string * int * float * float) list;
      (** array, index, expected, got (first few only) *)
}

(** Simulate [graph] on fresh inputs for the benchmark and verify.
    [deadline] is the supervised-campaign watchdog predicate, passed
    through to {!Sim.Engine.run} (which raises [Timeout] when it fires).
    [chaos] perturbs the run adversarially ({!Sim.Chaos}); a valid
    circuit must still complete with the same results.  [monitor] is the
    per-cycle hook of {!Sim.Engine.run} — pass
    [Sim.Sanitizer.monitor ()] to run the elastic-protocol sanitizers
    (a raised {!Sim.Sanitizer.Violation} escapes this function).
    [sink] attaches the observability event stream ({!Sim.Engine.sink})
    for the [Obs] trace writers and metrics pass. *)
val run_circuit :
  ?seed:int ->
  ?max_cycles:int ->
  ?deadline:(unit -> bool) ->
  ?monitor:(Sim.Engine.t -> cycle:int -> Sim.Engine.monitor_phase -> unit) ->
  ?chaos:Sim.Chaos.config ->
  ?sink:Sim.Engine.sink ->
  Registry.bench ->
  Dataflow.Graph.t ->
  verdict

(** Like {!run_circuit} but also returns the engine outcome, so callers
    can run {!Sim.Forensics} on deadlocked or out-of-fuel runs. *)
val run_circuit_full :
  ?seed:int ->
  ?max_cycles:int ->
  ?deadline:(unit -> bool) ->
  ?monitor:(Sim.Engine.t -> cycle:int -> Sim.Engine.monitor_phase -> unit) ->
  ?chaos:Sim.Chaos.config ->
  ?sink:Sim.Engine.sink ->
  Registry.bench ->
  Dataflow.Graph.t ->
  Sim.Engine.outcome * verdict

(** Like {!run_circuit_full} but over a pre-compiled execution image
    ({!Sim.Engine.image}), skipping validation and graph compilation.
    Cycle-for-cycle identical to running the image's graph; no [chaos]
    (images are chaos-free by construction). *)
val run_image_full :
  ?seed:int ->
  ?max_cycles:int ->
  ?deadline:(unit -> bool) ->
  ?monitor:(Sim.Engine.t -> cycle:int -> Sim.Engine.monitor_phase -> unit) ->
  ?sink:Sim.Engine.sink ->
  Registry.bench ->
  Sim.Engine.image ->
  Sim.Engine.outcome * verdict

val pp_verdict : verdict Fmt.t
