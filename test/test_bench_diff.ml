(* bench_diff engine: the CI perf gate's regression detection, series
   filtering, vanished-series handling and telemetry-snapshot flattening. *)

module Tel = Alpenhorn_telemetry.Telemetry
module Diff = Alpenhorn_bench_diff.Diff_engine

let parse s =
  match Tel.Json.parse s with
  | Some d -> d
  | None -> Alcotest.failf "fixture is not valid JSON: %s" s

let row rows series =
  match List.find_opt (fun (r : Diff.row) -> r.series = series) rows with
  | Some r -> r
  | None -> Alcotest.failf "no row for series %s" series

let suite =
  [
    Alcotest.test_case "a 20%% regression trips a 10%% gate but not a 25%% one" `Quick
      (fun () ->
        let before = parse {|{"after": {"pairing": 10.0, "ibe": 4.0}}|} in
        let after = parse {|{"after": {"pairing": 12.0, "ibe": 4.0}}|} in
        let rows = Diff.diff ~threshold_pct:10.0 ~before ~after () in
        Alcotest.(check int) "both series compared" 2 (List.length rows);
        let bad = Diff.regressions rows in
        Alcotest.(check (list string)) "exactly the slowed series flagged"
          [ "after.pairing" ]
          (List.map (fun (r : Diff.row) -> r.Diff.series) bad);
        Alcotest.(check (float 1e-9)) "pct change computed" 20.0
          (row rows "after.pairing").Diff.pct;
        let lenient = Diff.diff ~threshold_pct:25.0 ~before ~after () in
        Alcotest.(check (list string)) "25% gate passes it" []
          (List.map (fun (r : Diff.row) -> r.Diff.series) (Diff.regressions lenient)));
    Alcotest.test_case "series prefix filter" `Quick (fun () ->
        let before = parse {|{"after": {"pairing": 10.0}, "before": {"pairing": 50.0}}|} in
        let after = parse {|{"after": {"pairing": 30.0}, "before": {"pairing": 90.0}}|} in
        let rows = Diff.diff ~threshold_pct:10.0 ~series:[ "after." ] ~before ~after () in
        Alcotest.(check (list string)) "only the filtered prefix is compared"
          [ "after.pairing" ]
          (List.map (fun (r : Diff.row) -> r.Diff.series) rows));
    Alcotest.test_case "a vanished series is reported but never a regression" `Quick
      (fun () ->
        let before = parse {|{"a": 1.0, "b": 2.0}|} in
        let after = parse {|{"a": 1.0}|} in
        let rows = Diff.diff ~threshold_pct:10.0 ~before ~after () in
        let gone = row rows "b" in
        Alcotest.(check (option (float 1e-9))) "no after value" None gone.Diff.after_v;
        Alcotest.(check bool) "not counted as regressed" false gone.Diff.regressed;
        ignore (Format.asprintf "%a" Diff.pp rows));
    Alcotest.test_case "telemetry snapshots flatten by metric name, not position" `Quick
      (fun () ->
        let r = Tel.create () in
        Tel.Counter.add (Tel.Counter.v r ~labels:[ ("server", "1") ] "mix.onions_in") 7;
        Tel.Gauge.set (Tel.Gauge.v r "mailbox.max_load") 42.0;
        Tel.Histogram.observe (Tel.Histogram.v r "scan.bytes") 128.0;
        let doc = parse (Tel.Snapshot.to_json (Tel.Snapshot.take r)) in
        let leaves = Diff.flatten doc in
        let v key =
          match List.assoc_opt key leaves with
          | Some x -> x
          | None ->
            Alcotest.failf "missing series %s in %s" key
              (String.concat ", " (List.map fst leaves))
        in
        Alcotest.(check (float 1e-9)) "labeled counter keyed by name+labels" 7.0
          (v "counters.mix.onions_in{server=1}");
        Alcotest.(check (float 1e-9)) "gauge value" 42.0 (v "gauges.mailbox.max_load");
        Alcotest.(check (float 1e-9)) "histogram count field" 1.0
          (v "histograms.scan.bytes.count");
        Alcotest.(check (float 1e-9)) "histogram sum field" 128.0
          (v "histograms.scan.bytes.sum"));
    Alcotest.test_case "checked-in pairing benchmark compares clean against itself" `Quick
      (fun () ->
        (* cwd is the test dir under `dune runtest`, the workspace root
           under `dune exec` *)
        let path =
          List.find Sys.file_exists [ "../BENCH_pairing.json"; "BENCH_pairing.json" ]
        in
        let doc =
          let ic = open_in_bin path in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          parse s
        in
        let rows = Diff.diff ~threshold_pct:10.0 ~series:[ "after." ] ~before:doc ~after:doc () in
        Alcotest.(check bool) "baseline has series" true (rows <> []);
        Alcotest.(check (list string)) "self-diff never regresses" []
          (List.map (fun (r : Diff.row) -> r.Diff.series) (Diff.regressions rows)));
    Alcotest.test_case "a calibrated snapshot is keyed by metric name" `Quick (fun () ->
        let r = Tel.create () in
        Tel.Counter.add (Tel.Counter.v r ~labels:[ ("server", "1") ] "mix.onions_in") 7;
        let snap = Tel.Snapshot.to_json (Tel.Snapshot.take r) in
        let doc = parse (Printf.sprintf {|{"machine":{"pairing_ms":1.5},"telemetry":%s}|} snap) in
        Alcotest.(check (list (pair string (float 1e-9))))
          "the machine member, then the counter by name+labels, none by position"
          [ ("machine.pairing_ms", 1.5); ("counters.mix.onions_in{server=1}", 7.0) ]
          (Diff.flatten doc));
    Alcotest.test_case "an empty histogram has no min or max series" `Quick (fun () ->
        let r = Tel.create () in
        ignore (Tel.Histogram.v r "scan.bytes");
        let leaves = Diff.flatten (parse (Tel.Snapshot.to_json (Tel.Snapshot.take r))) in
        Alcotest.(check (list string)) "count and sum only"
          [ "histograms.scan.bytes.count"; "histograms.scan.bytes.sum" ]
          (List.map fst leaves));
  ]
