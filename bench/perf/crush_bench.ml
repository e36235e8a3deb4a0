(** The benchmark driver: runs one workload (or all four) for a seeded
    input set and prints every metric by name and unit, then one JSON
    result line.  With [--trace 1] it runs the workload twice --
    untraced, then with spans and the finer-grained per-layer calls --
    and prints the per-layer metrics, the span table and the tracing
    overhead.  Exits 1 when any correctness gate fails. *)

let usage =
  "crush_bench [--workload optimize|simulate|serve-batch|serve-worker|all]\n\
  \            [--seed N] [--seconds S] [--trace 0|1]"

let workload_fn = function
  | "optimize" -> Optimize.run
  | "simulate" -> Simulate.run
  | "serve-batch" -> Serve_load.batch
  | "serve-worker" -> Serve_load.worker
  | w -> invalid_arg w

(** A per-layer time metric named [<span>_ms] or [<span>_us] reads the
    mean duration of that span. *)
let span_value (name, unit) =
  let span suffix =
    String.sub name 0 (String.length name - String.length suffix)
  in
  match unit with
  | "ms" when String.ends_with ~suffix:"_ms" name ->
      Some (name, Span.mean_ms (span "_ms"))
  | "us" when String.ends_with ~suffix:"_us" name ->
      Some (name, 1000.0 *. Span.mean_ms (span "_us"))
  | _ -> None

let report ~workload (o : Workload.outcome) catalog values =
  List.iter
    (fun e -> Printf.printf "%s FAILED: %s\n" workload e)
    (List.rev o.errors);
  Printf.printf "%s ops %d failed %d\n" workload o.attempted o.failed;
  List.iter
    (fun (name, unit) ->
      Printf.printf "%s %-28s %14.4f %s\n" workload name
        (Option.value ~default:0.0 (List.assoc_opt name values))
        unit)
    catalog;
  let correct = o.errors = [] && o.failed = 0 in
  print_endline
    (Catalog.result_json ~correct ~attempted:o.attempted ~failed:o.failed
       ~catalog values);
  correct

(** Write an output file under [_build/bench] and say where. *)
let output workload suffix write =
  let path = Filename.concat Workload.out_dir (workload ^ suffix) in
  write path;
  Printf.printf "%s wrote %s\n" workload path

let run_one ~workload ~seed ~seconds ~trace =
  let run = workload_fn workload in
  if not trace then begin
    let o = run ~seed ~seconds ~traced:false in
    output workload ".ops.tsv" (fun path -> Workload.write_ops path o.units);
    report ~workload o Catalog.end_to_end o.e2e
  end
  else begin
    let plain = run ~seed ~seconds ~traced:false in
    Span.finished := [];
    Span.enabled := true;
    let traced = run ~seed ~seconds ~traced:true in
    Span.enabled := false;
    Printf.printf "%s tracing overhead (untraced -> traced):\n" workload;
    List.iter
      (fun (name, unit) ->
        let u = List.assoc name plain.e2e and t = List.assoc name traced.e2e in
        Printf.printf "  %-28s %12.4f -> %12.4f %s (%+.1f%%)\n" name u t unit
          (100.0 *. ((t /. u) -. 1.0)))
      Catalog.end_to_end;
    Format.printf "%a%!" Span.pp_table (Span.table ());
    output workload ".trace.json" Span.write_chrome;
    let values =
      traced.layers @ List.filter_map span_value Catalog.per_layer
    in
    report ~workload
      { traced with errors = plain.errors @ traced.errors }
      Catalog.per_layer values
  end

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  workload (default: all)");
      ("--seed", Arg.Set_int seed, "N  input seed (1: development, 2: held out)");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1  traced run with per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload ("all" :: Catalog.workloads)) then begin
    prerr_endline ("crush_bench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ Filename.dirname Workload.out_dir; Workload.out_dir ];
  let workloads =
    if !workload = "all" then Catalog.workloads else [ !workload ]
  in
  let results =
    List.map
      (fun workload ->
        run_one ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
      workloads
  in
  exit (if List.for_all Fun.id results then 0 else 1)
