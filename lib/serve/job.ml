(** Worker-side serve job execution; see the interface. *)

module J = Exec.Jsonl
module Outcome = Exec.Outcome

let strategy_of_string = function
  | "fast" -> Minic.Codegen.Fast_token
  | _ -> Minic.Codegen.Bb_ordered

(** Apply a sharing technique in place, discarding its report (the API
    returns simulation results, not optimization logs). *)
let apply_technique technique (c : Minic.Codegen.compiled) =
  match technique with
  | "crush" ->
      ignore
        (Crush.Share.crush c.Minic.Codegen.graph
           ~critical_loops:c.Minic.Codegen.critical_loops)
  | "inorder" ->
      ignore
        (Crush.Inorder.share c.Minic.Codegen.graph
           ~critical_loops:c.Minic.Codegen.critical_loops
           ~conditional_bbs:c.Minic.Codegen.conditional_bbs)
  | _ -> ()

let status_string (s : Sim.Engine.status) =
  match s with
  | Sim.Engine.Completed _ -> "completed"
  | Sim.Engine.Deadlock _ -> "deadlock"
  | Sim.Engine.Out_of_fuel _ -> "out-of-fuel"

let stats_result (stats : Sim.Engine.stats) =
  J.Obj
    [
      ("kind", J.String "stats");
      ("status", J.String (status_string stats.Sim.Engine.status));
      ("cycles", J.Int stats.Sim.Engine.cycles);
      ("transfers", J.Int stats.Sim.Engine.transfers);
    ]

let verdict_result (v : Kernels.Harness.verdict) =
  J.Obj
    [
      ("kind", J.String "verdict");
      ("status", J.String (status_string v.Kernels.Harness.status));
      ("cycles", J.Int v.Kernels.Harness.cycles);
      ("correct", J.Bool v.Kernels.Harness.functionally_correct);
      ("mismatches", J.Int (List.length v.Kernels.Harness.mismatches));
    ]

(** Elaborate the job's circuit: payload -> technique-applied dataflow
    graph.  This is the compile half of {!run} — frontend exceptions
    escape exactly as they do from [run] (the caller's
    {!Exec.Campaign.run_with_retries} classifies them); spec-level
    problems return the outcome as a value. *)
let compile (job : Api.job) : (Dataflow.Graph.t, J.t Outcome.t) result =
  let strategy = strategy_of_string job.Api.strategy in
  match job.Api.payload with
  | Api.Kernel { name } ->
      let b = Kernels.Registry.find name in
      let c =
        Minic.Codegen.compile_source ~strategy b.Kernels.Registry.source
      in
      apply_technique job.Api.technique c;
      Ok c.Minic.Codegen.graph
  | Api.Source { text } ->
      let c = Minic.Codegen.compile_source ~strategy text in
      apply_technique job.Api.technique c;
      Ok c.Minic.Codegen.graph
  | Api.Circuit { graph = gj } -> (
      if job.Api.technique <> "naive" then
        Error
          (Outcome.Validation_error
             {
               message =
                 "sharing techniques need compiled loop structure; submit \
                  circuits with technique=naive";
             })
      else
        match Exec.Reduce.graph_of_json gj with
        | None ->
            Error
              (Outcome.Validation_error
                 { message = "undecodable circuit JSON" })
        | Some g -> Ok g)

(** The simulate half, over a compiled execution image.  Worker-tier
    runs build their image from a fresh compile and batch-tier runs take
    a cached one, so both tiers run this same code and classify every
    job identically. *)
let run_on_image ~deadline (job : Api.job) image : J.t Outcome.t =
  let monitor =
    if job.Api.sanitize then Some (Sim.Sanitizer.monitor ()) else None
  in
  let max_cycles = job.Api.max_cycles in
  match job.Api.payload with
  | Api.Kernel { name } ->
      let eng, verdict =
        Kernels.Harness.run_image_full ~seed:job.Api.seed ~max_cycles
          ~deadline ?monitor
          (Kernels.Registry.find name)
          image
      in
      Outcome.map (fun _ -> verdict_result verdict) (Outcome.of_sim_run eng)
  | Api.Source _ | Api.Circuit _ ->
      Sim.Engine.run_image ~max_cycles ~deadline ?monitor image
      |> Outcome.of_sim_run |> Outcome.map stats_result

let run ~deadline (job : Api.job) : J.t Outcome.t =
  match compile job with
  | Error o -> o
  | Ok g -> run_on_image ~deadline job (Sim.Engine.image g)

let worker_run (_ : Exec.Supervisor.worker_opts)
    ~(ctx : Exec.Supervisor.job_ctx) spec =
  match Api.job_of_json spec with
  | Error m ->
      ( Outcome.to_json Fun.id
          (Outcome.Validation_error { message = m } : J.t Outcome.t),
        1 )
  | Ok job ->
      let timeout_s = Option.bind (J.member "timeout_s" spec) J.to_float in
      let o, attempts =
        Exec.Campaign.run_with_retries ?timeout_s ~retries:0 (fun ~deadline ->
            let deadline () =
              ctx.Exec.Supervisor.heartbeat ();
              deadline ()
            in
            run ~deadline job)
      in
      (Outcome.to_json Fun.id o, attempts)
