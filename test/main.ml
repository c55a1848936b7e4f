(* Aggregated test runner: one suite per library plus integration. *)

let () =
  Alcotest.run "alpenhorn"
    [
      ("bigint", Test_bigint.suite);
      ("crypto", Test_crypto.suite);
      ("field", Test_field.suite);
      ("mont", Test_mont.suite);
      ("curve", Test_curve.suite);
      ("pairing", Test_pairing.suite);
      ("ibe", Test_ibe.suite);
      ("bls", Test_bls.suite);
      ("dh", Test_dh.suite);
      ("keywheel", Test_keywheel.suite);
      ("bloom", Test_bloom.suite);
      ("mixnet", Test_mixnet.suite);
      ("pkg", Test_pkg.suite);
      ("client", Test_client.suite);
      ("integration", Test_integration.suite);
      ("vuvuzela", Test_vuvuzela.suite);
      ("sim", Test_sim.suite);
      ("telemetry", Test_telemetry.suite);
      ("observe", Test_observe.suite);
      ("parallel", Test_parallel.suite);
      ("trace", Test_trace.suite);
      ("slo", Test_slo.suite);
      ("bench_diff", Test_bench_diff.suite);
      ("privacy", Test_privacy.suite);
      ("ratelimit", Test_ratelimit.suite);
      ("entry", Test_entry.suite);
      ("persist", Test_persist.suite);
      ("net", Test_net.suite);
      ("robustness", Test_robustness.suite);
      ("faults", Test_faults.suite);
      ("collector", Test_collector.suite);
      ("shard", Test_shard.suite);
      ("scale", Test_scale.suite);
      ("golden", Test_golden.suite);
      ("codec", Test_codec.suite);
      ("formats", Test_formats.suite);
    ]
