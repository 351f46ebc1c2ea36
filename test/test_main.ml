let () =
  Alcotest.run "paqoc"
    [ ("linalg", Test_linalg.suite);
      ("circuit", Test_circuit.suite);
      ("topology", Test_topology.suite);
      ("commutation", Test_commutation.suite);
      ("pulse", Test_pulse.suite);
      ("obs", Test_obs.suite);
      ("properties", Test_properties.suite);
      ("parallel", Test_parallel.suite);
      ("mining", Test_mining.suite);
      ("miner-oracle", Test_mining_oracle.suite);
      ("accqoc", Test_accqoc.suite);
      ("core", Test_core.suite);
      ("variational", Test_variational.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("integration", Test_integration.suite);
      ("surfaces", Test_cli_like.suite);
      ("failures", Test_failures.suite);
      ("resilience", Test_resilience.suite);
      ("differential", Test_differential.suite);
      ("qasm-fuzz", Test_qasm_fuzz.suite);
      ("kernels", Test_kernels.suite);
      ("search", Test_search.suite);
      ("golden", Test_golden.suite);
      ("cache", Test_cache.suite);
      ("canon", Test_canon.suite);
      ("server", Test_server.suite);
      ("sweep", Test_sweep.suite);
      ("device", Test_device.suite);
      ("hotpath", Test_hotpath.suite)
    ]
