(** Test entry point: all suites under one alcotest runner.

    The binary doubles as the shard-runner test worker: when launched as
    [run_tests __worker ...] by {!Exec.Supervisor.run}, it must enter
    the worker event loop before alcotest ever sees argv. *)

let () = Test_shard.worker_main_if_requested ()

let () =
  Alcotest.run "crush"
    [
      ("dataflow", Test_dataflow.suite);
      ("sim", Test_sim.suite);
      ("frontend", Test_frontend.suite);
      ("analysis", Test_analysis.suite);
      ("cycle_ratio", Test_cycle_ratio.suite);
      ("crush", Test_crush.suite);
      ("groups", Test_groups.suite);
      ("kernels", Test_kernels.suite);
      ("extensions", Test_extensions.suite);
      ("properties", Test_properties.suite);
      ("robustness", Test_robustness.suite);
      ("exec", Test_exec.suite);
      ("sanitize", Test_sanitize.suite);
      ("differential", Test_differential.suite);
      ("obs", Test_obs.suite);
      ("shard", Test_shard.suite);
      ("serve", Test_serve.suite);
      ("faultfs", Test_faultfs.suite);
    ]
