(** Shared helpers for the test suites: micro-circuit construction and
    simulation shortcuts. *)

open Dataflow
open Dataflow.Types

let check = Alcotest.check
let checkb msg = Alcotest.(check bool) msg true
let checki = Alcotest.(check int)

(** Build a finished graph from a builder recipe. *)
let circuit f =
  let b = Builder.create () in
  f b;
  Builder.finalize b

(** A stream source: a loop emitting the integers 0..n-1 at II >= 1 into
    [use], which must return the wire to sink or store.  Returns the
    finished graph. *)
let int_stream ?(n = 16) use =
  circuit (fun b ->
      let ctrl = Builder.entry b VUnit in
      let i0 = Builder.const b ~ctrl (VInt 0) in
      let lim = Builder.const b ~ctrl (VInt n) in
      let exits =
        Builder.counted_loop b ~loop:0 ~inits:[ ctrl; i0; lim ]
          ~cond:(fun hs ->
            match hs with
            | [ _; i; l ] -> Builder.operator b (Icmp Lt) ~latency:0 [ i; l ] ~loop:0
            | _ -> assert false)
          ~body:(fun hs ->
            match hs with
            | [ c; i; l ] ->
                use b i;
                let one = Builder.const b ~ctrl:i (VInt 1) ~loop:0 in
                let i' = Builder.operator b Iadd ~latency:0 [ i; one ] ~loop:0 in
                [ c; i'; l ]
            | _ -> assert false)
      in
      match exits with
      | c :: _ -> ignore (Builder.exit_ b c)
      | [] -> assert false)

(** Run a graph; fail the test on deadlock or fuel exhaustion. *)
let run_ok ?memory g =
  let out = Sim.Engine.run ?memory g in
  (match out.Sim.Engine.stats.Sim.Engine.status with
  | Sim.Engine.Completed _ -> ()
  | st -> Alcotest.failf "simulation did not complete: %a" Sim.Engine.pp_status st);
  out

(** Run a graph and expect a deadlock. *)
let run_deadlock ?memory g =
  let out = Sim.Engine.run ?memory g in
  match out.Sim.Engine.stats.Sim.Engine.status with
  | Sim.Engine.Deadlock _ -> out
  | st -> Alcotest.failf "expected deadlock, got %a" Sim.Engine.pp_status st

(** The exit payloads of a completed run. *)
let exit_values out = out.Sim.Engine.stats.Sim.Engine.exit_values

let cycles out = out.Sim.Engine.stats.Sim.Engine.cycles

(** Compile mini-C source text (Bb_ordered by default). *)
let compile ?strategy src = Minic.Codegen.compile_source ?strategy src

(* Seed the property tests ourselves instead of letting
   [QCheck_alcotest.to_alcotest] do it: its default announces the seed
   on stdout at module-init time, and in shard-worker mode ([__worker])
   fd 1 is the supervisor's framed protocol pipe — a banner there reads
   as a corrupt frame.  The announcement goes to stderr instead;
   [QCHECK_SEED] still overrides for repeatability. *)
let qcheck_seed =
  lazy
    (let s =
       try int_of_string (Sys.getenv "QCHECK_SEED")
       with _ ->
         Random.self_init ();
         Random.int 1_000_000_000
     in
     Printf.eprintf "qcheck random seed: %d\n%!" s;
     s)

let qtest ?(count = 100) ?speed_level ?print name gen prop =
  QCheck_alcotest.to_alcotest ?speed_level
    ~rand:(Random.State.make [| Lazy.force qcheck_seed |])
    (QCheck2.Test.make ~count ~name ?print gen prop)
