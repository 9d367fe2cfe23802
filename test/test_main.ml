(* Single alcotest entry point aggregating every library's suite. *)

let () =
  Alcotest.run "symsysc"
    [
      ("smt", Test_smt.suite);
      ("pk", Test_pk.suite);
      ("pk-trace", Test_trace.suite);
      ("obs", Test_obs.suite);
      ("symex", Test_symex.suite);
      ("tlm", Test_tlm.suite);
      ("plic", Test_plic.suite);
      ("clint", Test_clint.suite);
      ("uart", Test_uart.suite);
      ("differential", Test_differential.suite);
      ("integration", Test_core.suite);
      ("resilience", Test_resilience.suite);
      ("pool", Test_pool.suite);
      ("incremental", Test_incremental.suite);
      ("snapshots", Test_snapshots.suite);
      ("chaos", Test_chaos.suite);
      ("deepobs", Test_deepobs.suite);
      ("distributed", Test_distributed.suite);
      ("service", Test_service.suite);
      ("witness", Test_witness.suite);
    ]
