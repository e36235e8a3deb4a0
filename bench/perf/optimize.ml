(** optimize: compile and share a fixed circuit set, no simulation in the
    window -- the paper's optimization-time study.  One unit is a round
    over the whole set.  CRUSH runs on the 11 registry kernels plus
    gesummv (n = 75) unrolled x5, x15 and x25; In-order runs on the 11
    kernels plus gesummv x3 and x5, because its repeated analysis is
    superlinear (x15 takes over 10 s).  The fully unrolled x75 circuit of
    Table 1 is left out: at about 5 s per flow, a round would be too long
    to repeat within one run.  After the window every shared circuit is
    simulated once and verified against the software reference. *)

type technique = Crush | Inorder

type circuit = {
  id : string;
  technique : technique;
  bench : Kernels.Registry.bench;
  source : [ `Text of string | `Ast of Minic.Ast.kernel ];
}

let technique_name = function Crush -> "crush" | Inorder -> "inorder"

(** Setup: unroll gesummv at every factor the study uses. *)
let circuit_set () =
  let kernels =
    List.map
      (fun (b : Kernels.Registry.bench) -> (b, `Text b.source))
      Kernels.Registry.all
  in
  let gesummv factors =
    List.map
      (fun factor ->
        let b, k = Kernels.Registry.gesummv_unrolled ~n:75 ~factor in
        (b, `Ast k))
      factors
  in
  let make technique (b, source) =
    let id = technique_name technique ^ ":" ^ b.Kernels.Registry.name in
    { id; technique; bench = b; source }
  in
  Array.of_list
    (List.map (make Crush) (kernels @ gesummv [ 5; 15; 25 ])
    @ List.map (make Inorder) (kernels @ gesummv [ 3; 5 ]))

(** Compile and share; returns the compiled circuit and its group count. *)
let flow c =
  let tag = c.id in
  Span.run ~tag "op" (fun () ->
      let cc =
        Span.run ~tag "minic.compile" (fun () ->
            match c.source with
            | `Text src -> Minic.Codegen.compile_source src
            | `Ast k -> Minic.Codegen.compile k)
      in
      let g = cc.Minic.Codegen.graph in
      let critical_loops = cc.Minic.Codegen.critical_loops in
      let groups =
        match c.technique with
        | Crush ->
            Span.run ~tag "crush.share" (fun () ->
                (Crush.Share.crush g ~critical_loops).Crush.Share.groups)
        | Inorder ->
            Span.run ~tag "inorder.share" (fun () ->
                (Crush.Inorder.share g ~critical_loops
                   ~conditional_bbs:cc.Minic.Codegen.conditional_bbs)
                  .Crush.Inorder.groups)
      in
      (cc, List.length groups))

(** The finer-grained calls of the traced run, once per circuit: parse,
    check and generate separately, then the CRUSH analysis steps on a
    copy, then the pass itself and its validation. *)
let split circuits =
  let units = ref 0 and groups = ref 0 and evaluations = ref 0 in
  (* share ms per benchmark name, for the CRUSH/In-order ratio *)
  let crush_ms = Hashtbl.create 16 and inorder_ms = Hashtbl.create 16 in
  let timed tbl (c : circuit) name f =
    let r, dt = Measure.time (fun () -> Span.run ~tag:c.id name f) in
    Hashtbl.replace tbl c.bench.Kernels.Registry.name (dt *. 1000.0);
    r
  in
  Array.iter
    (fun c ->
      let tag = c.id in
      let ast =
        match c.source with
        | `Text src ->
            Span.run ~tag "minic.parse" (fun () -> Minic.Parser.parse_kernel src)
        | `Ast k -> k
      in
      ignore (Span.run ~tag "minic.sema" (fun () -> Minic.Sema.check ast));
      let cc =
        Span.run ~tag "minic.codegen" (fun () -> Minic.Codegen.compile ast)
      in
      let g = cc.Minic.Codegen.graph in
      let critical_loops = cc.Minic.Codegen.critical_loops in
      units := !units + Dataflow.Graph.live_unit_count g;
      match c.technique with
      | Crush ->
          let ctx =
            Span.run ~tag "crush.context" (fun () ->
                Crush.Context.make (Dataflow.Graph.copy g) ~critical_loops)
          in
          ignore (Span.run ~tag "crush.infer" (fun () -> Crush.Groups.infer ctx));
          let r =
            timed crush_ms c "crush.share" (fun () ->
                Crush.Share.crush g ~critical_loops)
          in
          groups := !groups + List.length r.Crush.Share.groups;
          Span.run ~tag "dataflow.validate" (fun () ->
              Dataflow.Validate.check_exn g)
      | Inorder ->
          let r =
            timed inorder_ms c "inorder.share" (fun () ->
                Crush.Inorder.share g ~critical_loops
                  ~conditional_bbs:cc.Minic.Codegen.conditional_bbs)
          in
          evaluations := !evaluations + r.Crush.Inorder.evaluations)
    circuits;
  (* The paper's claim: In-order's share time over CRUSH's, summed over
     the circuits both ran. *)
  let crush_sum, inorder_sum =
    Hashtbl.fold
      (fun name ims (cs, is) ->
        match Hashtbl.find_opt crush_ms name with
        | Some cms -> (cs +. cms, is +. ims)
        | None -> (cs, is))
      inorder_ms (0.0, 0.0)
  in
  [
    ("minic.units", float_of_int !units);
    ("crush.groups", float_of_int !groups);
    ("inorder.evaluations", float_of_int !evaluations);
    ("opt.ratio", inorder_sum /. crush_sum);
  ]

let run ~seed ~seconds ~traced =
  (* The set-up takes well under a ms, so each sample is the mean of 20
     builds and the median of 9 samples is reported. *)
  let builds = 20 in
  let circuits, setup_s =
    Workload.repeat_setup 9 (fun () ->
        for _ = 2 to builds do
          ignore (circuit_set ())
        done;
        circuit_set ())
  in
  let setup_s = setup_s /. float_of_int builds in
  let errors = ref [] in
  let groups = Hashtbl.create 32 and last = Hashtbl.create 32 in
  let gc0 = Gc.quick_stat () in
  let units =
    Workload.whole_units ~seconds ~min_units:3 (fun _round ->
        let ops =
          Array.map
            (fun c ->
              let (cc, g), dt = Measure.time (fun () -> flow c) in
              (match Hashtbl.find_opt groups c.id with
              | Some g0 ->
                  Workload.check errors (g = g0)
                    (c.id ^ ": group count changed between rounds")
              | None -> Hashtbl.replace groups c.id g);
              Hashtbl.replace last c.id cc;
              (c.id, dt *. 1000.0))
            circuits
        in
        (Array.to_list ops, Array.length ops))
  in
  let gc = Workload.gc_layers gc0 in
  let peak_rss_mb = Measure.peak_rss_mb "self" in
  (* Correctness: every shared circuit computes the reference result. *)
  Array.iter
    (fun c ->
      let tag = c.id in
      let g = (Hashtbl.find last c.id).Minic.Codegen.graph in
      let image = Span.run ~tag "engine.image" (fun () -> Sim.Engine.image g) in
      let _, v =
        Span.run ~tag "harness.run" (fun () ->
            Kernels.Harness.run_image_full ~seed c.bench image)
      in
      Workload.check errors v.Kernels.Harness.functionally_correct
        (c.id ^ ": shared circuit is not functionally correct"))
    circuits;
  let ops = Workload.all_ops units in
  let flow_ms t =
    let prefix = technique_name t ^ ":" in
    Measure.geomean_of_medians
      (List.filter (fun (id, _) -> String.starts_with ~prefix id) ops)
  in
  {
    Workload.attempted = List.length ops;
    failed = List.length !errors;
    errors = !errors;
    units;
    e2e = Workload.e2e ~setup_s ~units ~peak_rss_mb;
    layers =
      [ ("crush.flow_ms", flow_ms Crush); ("inorder.flow_ms", flow_ms Inorder) ]
      @ gc
      @ if traced then split circuits else [];
  }
