(** Compile–simulate–verify harness: the replacement for the paper's
    ModelSim flow.  It runs a benchmark circuit on deterministic inputs
    and checks every array against the software reference ("we confirm
    that the circuit produces the same result as the C code and the
    circuit does not deadlock", Section 6.1). *)

type verdict = {
  status : Sim.Engine.status;
  cycles : int;
  functionally_correct : bool;
  mismatches : (string * int * float * float) list;
      (** array, index, expected, got (at most a handful reported) *)
}

let close a b =
  let d = Float.abs (a -. b) in
  d <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(** Compare simulated memories against reference arrays. *)
let compare_arrays (bench : Registry.bench) (expected : Reference.arrays)
    (memory : Sim.Memory.t) =
  List.concat_map
    (fun (name, _) ->
      let want = Reference.get expected name in
      let got = Sim.Memory.get_floats memory name in
      let bad = ref [] in
      Array.iteri
        (fun i w ->
          if List.length !bad < 5 && not (close w got.(i)) then
            bad := (name, i, w, got.(i)) :: !bad)
        want;
      List.rev !bad)
    bench.Registry.arrays

(** Fill a fresh memory for [graph] with [bench]'s inputs for [seed],
    hand it to [simulate], and verify the arrays it leaves against the
    software reference.  Returns the engine outcome (for forensics) and
    the verdict. *)
let verify ~seed (bench : Registry.bench) graph simulate =
  let inputs = Registry.fresh_inputs ~seed bench in
  let expected = Registry.copy_arrays inputs in
  bench.reference expected;
  let memory = Sim.Memory.of_graph graph in
  Hashtbl.iter (fun name data -> Sim.Memory.set_floats memory name data) inputs;
  let out = simulate memory in
  let mismatches =
    if Sim.Engine.is_completed out then compare_arrays bench expected memory
    else []
  in
  ( out,
    {
      status = out.stats.status;
      cycles = out.stats.cycles;
      functionally_correct = Sim.Engine.is_completed out && mismatches = [];
      mismatches;
    } )

(** Simulate [graph] on fresh inputs for [bench] and verify the results.
    [max_cycles] bounds runaway simulations; [deadline] is the
    supervised-campaign watchdog predicate ({!Sim.Engine.run}); [chaos]
    perturbs the run adversarially (the circuit must still complete with
    the same results). *)
let run_circuit_full ?(seed = 42) ?max_cycles ?deadline ?monitor ?chaos ?sink
    bench graph =
  verify ~seed bench graph (fun memory ->
      Sim.Engine.run ?max_cycles ?deadline ?monitor ?chaos ?sink ~memory graph)

(** Like {!run_circuit_full} but over a pre-compiled execution image
    ({!Sim.Engine.image}): the simulation is cycle-for-cycle identical
    to running the image's graph, minus validation and graph
    compilation.  No [chaos] (images are chaos-free by construction). *)
let run_image_full ?(seed = 42) ?max_cycles ?deadline ?monitor ?sink bench
    image =
  verify ~seed bench (Sim.Engine.image_graph image) (fun memory ->
      Sim.Engine.run_image ?max_cycles ?deadline ?monitor ?sink ~memory image)

let run_circuit ?seed ?max_cycles ?deadline ?monitor ?chaos ?sink bench graph =
  snd
    (run_circuit_full ?seed ?max_cycles ?deadline ?monitor ?chaos ?sink bench
       graph)

let pp_verdict ppf v =
  Fmt.pf ppf "%a, %s (%d cycles)" Sim.Engine.pp_status v.status
    (if v.functionally_correct then "correct" else "WRONG RESULTS")
    v.cycles
