(** Worker-side execution of one serve job: decode the spec, compile,
    apply the sharing technique, simulate under the request deadline,
    and classify everything through the {!Exec.Outcome} taxonomy.

    Lives in the library (not the CLI) so both the [crush] binary and
    the test binary can dispatch [__worker --kind serve] to the same
    code. *)

(** Run one decoded job.  [deadline] is the cooperative watchdog
    predicate; exceptions escape for {!Exec.Campaign.run_with_retries}
    to classify.  The [Ok] payload is API JSON:
    [{"kind":"verdict",...}] for kernel jobs (functional verification
    against the software reference), [{"kind":"stats",...}] for source
    and circuit jobs. *)
val run :
  deadline:(unit -> bool) ->
  Api.job ->
  Exec.Jsonl.t Exec.Outcome.t

(** The compile half of {!run} alone: payload -> technique-applied
    dataflow graph, ready for {!Sim.Engine.image}.  Frontend exceptions
    escape exactly as from {!run}; job-spec problems (non-naive circuit
    submissions, undecodable circuit JSON) come back as the outcome
    value.  Used by the in-process batch tier to fill the image cache. *)
val compile :
  Api.job -> (Dataflow.Graph.t, Exec.Jsonl.t Exec.Outcome.t) result

(** The simulate half of {!run}: [run] is {!compile}, then
    {!Sim.Engine.image}, then this.  The batch tier calls it on a cached
    image, so batch-tier and worker-tier runs of the same job run the
    same code and classify identically. *)
val run_on_image :
  deadline:(unit -> bool) ->
  Api.job ->
  Sim.Engine.image ->
  Exec.Jsonl.t Exec.Outcome.t

(** The [run] callback for {!Exec.Supervisor.worker_main} when launched
    as [__worker --kind serve].  The job spec is the canonical
    {!Api.job_to_json} object, optionally extended with a server-side
    ["timeout_s"] field carrying the remaining request deadline at
    dispatch. *)
val worker_run :
  Exec.Supervisor.worker_opts ->
  ctx:Exec.Supervisor.job_ctx ->
  Exec.Jsonl.t ->
  Exec.Jsonl.t * int
