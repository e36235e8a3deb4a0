(** simulate: run and verify precompiled execution images, serially.
    Setup compiles the Table 2 and Table 3 cells -- 11 kernels x
    {BB: naive, In-order, CRUSH; fast-token: naive, CRUSH} -- into 55
    images, so the frontend and sharing passes stay out of the window.
    Each unit of the window is one unmonitored pass over all 55 images
    and one sanitized pass over the 11 BB CRUSH images, both on the same
    input seed.  Runs are serial: a two-job campaign on a 2-vCPU host
    gave speedups anywhere from 0.89x to 1.82x. *)

type image = {
  id : string;
  bench : Kernels.Registry.bench;
  image : Sim.Engine.image;
  sanitized : bool;  (** also run in the sanitized pass *)
}

let cells =
  Minic.Codegen.
    [
      (Bb_ordered, "naive");
      (Bb_ordered, "inorder");
      (Bb_ordered, "crush");
      (Fast_token, "naive");
      (Fast_token, "crush");
    ]

let build () =
  List.concat_map
    (fun (b : Kernels.Registry.bench) ->
      List.map
        (fun (strategy, technique) ->
          let tag =
            Printf.sprintf "%s:%s:%s" b.Kernels.Registry.name
              (Minic.Codegen.string_of_strategy strategy)
              technique
          in
          let cc =
            Span.run ~tag "minic.compile" (fun () ->
                Minic.Codegen.compile_source ~strategy b.Kernels.Registry.source)
          in
          let g = cc.Minic.Codegen.graph in
          let critical_loops = cc.Minic.Codegen.critical_loops in
          (match technique with
          | "crush" ->
              Span.run ~tag "crush.share" (fun () ->
                  ignore (Crush.Share.crush g ~critical_loops))
          | "inorder" ->
              Span.run ~tag "inorder.share" (fun () ->
                  ignore
                    (Crush.Inorder.share g ~critical_loops
                       ~conditional_bbs:cc.Minic.Codegen.conditional_bbs))
          | _ -> ());
          {
            id = tag;
            bench = b;
            image = Span.run ~tag "engine.image" (fun () -> Sim.Engine.image g);
            sanitized =
              strategy = Minic.Codegen.Bb_ordered && technique = "crush";
          })
        cells)
    Kernels.Registry.all
  |> Array.of_list

let harness_run ?monitor ~seed im =
  Span.run ~tag:im.id "harness.run" (fun () ->
      Kernels.Harness.run_image_full ~seed ~max_cycles:Gen.max_cycles ?monitor
        im.bench im.image)

(** Traced run only: each image once on [seed].  The harness's own work
    -- inputs, software reference, memory set-up -- is timed with the
    calls the harness makes, then the engine alone runs on that memory:
    taking one whole harness run from the other cannot resolve a
    difference this far under 1% of the run. *)
let split images ~seed =
  let cycles = ref 0 and transfers = ref 0 in
  let per_cycle = ref [] and overhead = ref [] in
  Array.iter
    (fun im ->
      let memory, prep_s =
        Measure.time (fun () ->
            Span.run ~tag:im.id "harness.prepare" (fun () ->
                let inputs = Kernels.Registry.fresh_inputs ~seed im.bench in
                let expected = Kernels.Registry.copy_arrays inputs in
                im.bench.Kernels.Registry.reference expected;
                let g = Sim.Engine.image_graph im.image in
                let memory = Sim.Memory.of_graph g in
                Hashtbl.iter (Sim.Memory.set_floats memory) inputs;
                memory))
      in
      let out, run_s =
        Measure.time (fun () ->
            Span.run ~tag:im.id "engine.run" (fun () ->
                Sim.Engine.run_image ~max_cycles:Gen.max_cycles ~memory
                  im.image))
      in
      let stats = out.Sim.Engine.stats in
      cycles := !cycles + stats.Sim.Engine.cycles;
      transfers := !transfers + stats.Sim.Engine.transfers;
      per_cycle :=
        (run_s *. 1e9 /. float_of_int (max 1 stats.Sim.Engine.cycles))
        :: !per_cycle;
      overhead := (prep_s *. 1000.0) :: !overhead)
    images;
  let mean xs =
    List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  [
    ("engine.cycles", float_of_int !cycles);
    ("engine.transfers", float_of_int !transfers);
    ("engine.ns_per_cycle", Measure.geomean !per_cycle);
    ("harness.overhead_ms", mean !overhead);
  ]

let run ~seed ~seconds ~traced =
  let images, setup_s = Workload.repeat_setup 3 build in
  let errors = ref [] in
  let cycles_of = Hashtbl.create 256 in
  (* cycles and seconds of the unmonitored and of the sanitized runs, and
     the unmonitored seconds of the images that are also sanitized *)
  let plain_cycles = ref 0 and plain_s = ref 0.0 and paired_s = ref 0.0 in
  let sanitized_cycles = ref 0 and sanitized_s = ref 0.0 in
  let simulate ?monitor ~seed im =
    let (_, v), dt = Measure.time (fun () -> harness_run ?monitor ~seed im) in
    Workload.check errors v.Kernels.Harness.functionally_correct
      (Printf.sprintf "%s seed %d: wrong result or no completion" im.id seed);
    (v.Kernels.Harness.cycles, dt)
  in
  let gc0 = Gc.quick_stat () in
  let units =
    Workload.whole_units ~seconds ~min_units:2 (fun pass ->
        (* pass k simulates input data seed + k *)
        let seed = seed + pass in
        let unmonitored =
          Array.map
            (fun im ->
              let cycles, dt = simulate ~seed im in
              plain_cycles := !plain_cycles + cycles;
              plain_s := !plain_s +. dt;
              if im.sanitized then paired_s := !paired_s +. dt;
              Hashtbl.replace cycles_of (im.id, seed) cycles;
              (im.id, dt *. 1000.0))
            images
        in
        let sanitized =
          List.filter_map
            (fun im ->
              if not im.sanitized then None
              else begin
                let monitor = Sim.Sanitizer.monitor () in
                let cycles, dt = simulate ~monitor ~seed im in
                sanitized_cycles := !sanitized_cycles + cycles;
                sanitized_s := !sanitized_s +. dt;
                Workload.check errors
                  (Hashtbl.find cycles_of (im.id, seed) = cycles)
                  (Printf.sprintf
                     "%s seed %d: sanitized and unmonitored cycles differ"
                     im.id seed);
                Some ("sanitized:" ^ im.id, dt *. 1000.0)
              end)
            (Array.to_list images)
        in
        let ops = Array.to_list unmonitored @ sanitized in
        (ops, List.length ops))
  in
  let gc = Workload.gc_layers gc0 in
  let peak_rss_mb = Measure.peak_rss_mb "self" in
  {
    Workload.attempted = List.length (Workload.all_ops units);
    failed = List.length !errors;
    errors = !errors;
    units;
    e2e = Workload.e2e ~setup_s ~units ~peak_rss_mb;
    layers =
      [
        ("engine.cycles_per_s", float_of_int !plain_cycles /. !plain_s);
        ( "sanitizer.cycles_per_s",
          float_of_int !sanitized_cycles /. !sanitized_s );
        ("sanitizer.overhead_x", !sanitized_s /. !paired_s);
      ]
      @ gc
      @ if traced then split images ~seed else [];
  }
