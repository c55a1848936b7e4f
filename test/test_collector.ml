(* Fleet collector and exposition constant labels (DESIGN.md §14):
   Prometheus constant-label rendering, snapshot merging under instance
   labels, /metrics.json round-trips, and the staleness machinery —
   everything the orchestrator-side scraper relies on, with no sockets
   (the HTTP client is injected). *)

module Tel = Alpenhorn_telemetry.Telemetry
module Collector = Alpenhorn_telemetry.Collector
module Expose = Alpenhorn_telemetry.Expose
module Slo = Alpenhorn_telemetry.Slo
module Timeseries = Alpenhorn_telemetry.Timeseries

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains body needle =
  if not (contains body needle) then
    Alcotest.failf "expected %S in:\n%s" needle body

(* fetch for collectors that only hold Local instances *)
let no_fetch ~host:_ ~port:_ _ = Error "refused: no network in tests"

let find_check (report : Slo.report) name =
  match List.find_opt (fun (c : Slo.check) -> c.rule.Slo.name = name) report.checks with
  | Some c -> c
  | None -> Alcotest.failf "rule %s missing from report" name

let gauge_value snap ~labels name =
  List.nth_opt (Tel.Snapshot.gauges snap (Tel.metric_key name (List.sort compare labels))) 0

(* ---------- exposition: constant labels ---------- *)

let exposition_tests =
  [
    Alcotest.test_case "constant labels merge into every sample" `Quick (fun () ->
        let reg = Tel.create () in
        Tel.Counter.inc (Tel.Counter.v reg ~labels:[ ("tag", "0x10") ] "rpc.call");
        Tel.Gauge.set (Tel.Gauge.v reg "net.open_connections") 3.0;
        (* a metric carrying its own [instance] label must beat the
           constant one *)
        Tel.Counter.inc (Tel.Counter.v reg ~labels:[ ("instance", "me") ] "pkg.requests");
        let body =
          Expose.metrics_text
            ~labels:[ ("instance", "pkg-0"); ("role", "pkg") ]
            (Tel.Snapshot.take reg)
        in
        check_contains body {|rpc_call{instance="pkg-0",role="pkg",tag="0x10"} 1|};
        check_contains body {|net_open_connections{instance="pkg-0",role="pkg"} 3|};
        check_contains body {|instance="me"|};
        if contains body {|pkg_requests{instance="pkg-0"|} then
          Alcotest.fail "constant label overrode the metric's own instance label");
    Alcotest.test_case "constant label values are escaped" `Quick (fun () ->
        Alcotest.(check string)
          "escapes" "a\\\\b\\\"c\\nd"
          (Expose.escape_label_value "a\\b\"c\nd");
        let reg = Tel.create () in
        Tel.Counter.inc (Tel.Counter.v reg "x");
        let body =
          Expose.metrics_text ~labels:[ ("note", "say \"hi\"\n") ] (Tel.Snapshot.take reg)
        in
        check_contains body {|x{note="say \"hi\"\n"} 1|});
  ]

(* ---------- merging ---------- *)

let merge_tests =
  [
    Alcotest.test_case "two local instances merge under instance labels" `Quick (fun () ->
        let reg_a = Tel.create () and reg_b = Tel.create () in
        Tel.Counter.add (Tel.Counter.v reg_a "rpc.errors") 2;
        Tel.Counter.add (Tel.Counter.v reg_b "rpc.errors") 3;
        Tel.Gauge.set (Tel.Gauge.v reg_a "runtime.heap_words") 100.0;
        Tel.Gauge.set (Tel.Gauge.v reg_b "runtime.heap_words") 250.0;
        (Tel.Histogram.observe (Tel.Histogram.v reg_a "rpc.request_seconds")) 0.010;
        (Tel.Histogram.observe (Tel.Histogram.v reg_b "rpc.request_seconds")) 0.050;
        Tel.Span.emit reg_a ~name:"pkg.extract" ~ts:0.0 ~dur:0.002 ();
        let coll =
          Collector.create ~clock:(fun () -> 0.0) ~fetch:no_fetch
            [
              Collector.instance ~name:"pkg-0" (Collector.Local reg_a);
              Collector.instance ~name:"mixer-1" (Collector.Local reg_b);
            ]
        in
        Collector.scrape coll;
        let m = Collector.merged coll in
        (* fleet sum crosses instances; per-instance series stay distinct *)
        Alcotest.(check int) "fleet rpc.errors" 5 (Tel.Snapshot.counter_sum m "rpc.errors");
        Alcotest.(check (option int))
          "pkg-0 share" (Some 2)
          (Tel.Snapshot.counter m
             (Tel.metric_key "rpc.errors" [ ("instance", "pkg-0"); ("role", "pkg") ]));
        Alcotest.(check (option (float 0.0)))
          "mixer heap" (Some 250.0)
          (gauge_value m ~labels:[ ("instance", "mixer-1"); ("role", "mixer") ]
             "runtime.heap_words");
        (* both up, zero staleness *)
        Alcotest.(check (option (float 0.0)))
          "pkg-0 up" (Some 1.0)
          (gauge_value m ~labels:[ ("instance", "pkg-0"); ("role", "pkg") ]
             "fleet.instance_up");
        Alcotest.(check (option (float 0.0)))
          "mixer-1 up" (Some 1.0)
          (gauge_value m ~labels:[ ("instance", "mixer-1"); ("role", "mixer") ]
             "fleet.instance_up");
        (* spans keep their owner's label for trace stitching *)
        (match m.Tel.Snapshot.spans with
        | [ s ] ->
          Alcotest.(check string) "span name" "pkg.extract" s.Tel.Snapshot.name;
          Alcotest.(check (option string))
            "span instance" (Some "pkg-0")
            (List.assoc_opt "instance" s.Tel.Snapshot.labels)
        | l -> Alcotest.failf "expected 1 merged span, got %d" (List.length l));
        (* the stock rules see the fleet: 5 errors breach zero_rpc_errors,
           liveness holds *)
        let report = Collector.evaluate coll (Collector.fleet_rules ()) in
        Alcotest.(check bool) "unhealthy" false report.Slo.healthy;
        Alcotest.(check bool) "errors rule fails" false (find_check report "fleet.zero_rpc_errors").Slo.pass;
        Alcotest.(check bool) "liveness holds" true (find_check report "fleet.instances_up").Slo.pass;
        (* rows: the top --fleet data source *)
        match Collector.rows coll with
        | [ a; b ] ->
          Alcotest.(check string) "row order" "pkg-0" a.Collector.row_name;
          Alcotest.(check bool) "row up" true a.Collector.row_up;
          Alcotest.(check int) "row errors" 3 b.Collector.row_rpc_errors;
          Alcotest.(check int) "row spans" 1 a.Collector.row_spans
        | l -> Alcotest.failf "expected 2 rows, got %d" (List.length l));
  ]

(* ---------- /metrics.json round-trip ---------- *)

let parse_tests =
  [
    Alcotest.test_case "snapshot_of_json round-trips a live snapshot" `Quick (fun () ->
        (* fixed clock: the registry epoch is 2.0, so a span emitted at
           absolute 3.5 round-trips as epoch-relative 1.5 *)
        let reg = Tel.create ~clock:(fun () -> 2.0) () in
        Tel.Counter.add (Tel.Counter.v reg ~labels:[ ("tag", "0x20") ] "rpc.call") 7;
        Tel.Gauge.set (Tel.Gauge.v reg "mix.noise") 12.5;
        let h = Tel.Histogram.v reg "rpc.request_seconds" in
        List.iter (Tel.Histogram.observe h) [ 0.001; 0.004; 0.020 ];
        Tel.Span.emit reg ~labels:[ ("trace", "9") ] ~name:"mix.process" ~ts:3.5 ~dur:0.25 ();
        let snap = Tel.Snapshot.take reg in
        let doc =
          match Tel.Json.parse (Tel.Snapshot.to_json snap) with
          | Some d -> d
          | None -> Alcotest.fail "snapshot JSON did not parse"
        in
        let back =
          match Tel.Snapshot.of_json doc with
          | Ok s -> s
          | Error e -> Alcotest.failf "snapshot_of_json: %s" e
        in
        Alcotest.(check (option int))
          "counter" (Some 7)
          (Tel.Snapshot.counter back (Tel.metric_key "rpc.call" [ ("tag", "0x20") ]));
        Alcotest.(check (option (float 0.0)))
          "gauge" (Some 12.5) (gauge_value back ~labels:[] "mix.noise");
        (match back.Tel.Snapshot.histograms with
        | [ (n, [], hs) ] ->
          Alcotest.(check string) "hist name" "rpc.request_seconds" n;
          Alcotest.(check int) "hist count" 3 hs.Tel.Histogram.count;
          Alcotest.(check (float 1e-9)) "hist sum" 0.025 hs.Tel.Histogram.sum;
          Alcotest.(check (float 1e-9)) "hist min" 0.001 hs.Tel.Histogram.min_v;
          Alcotest.(check (float 1e-9)) "hist max" 0.020 hs.Tel.Histogram.max_v
        | l -> Alcotest.failf "expected 1 histogram, got %d" (List.length l));
        match back.Tel.Snapshot.spans with
        | [ s ] ->
          Alcotest.(check string) "span" "mix.process" s.Tel.Snapshot.name;
          Alcotest.(check (float 1e-9)) "span ts" 1.5 s.Tel.Snapshot.ts;
          Alcotest.(check (float 1e-9)) "span dur" 0.25 s.Tel.Snapshot.dur
        | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
    Alcotest.test_case "snapshot_of_json unwraps the labeled endpoint form" `Quick (fun () ->
        (* the per-server endpoint wraps the snapshot when constant labels
           are configured: {"labels":{...},"telemetry":<snapshot>} *)
        let reg = Tel.create () in
        Tel.Counter.inc (Tel.Counter.v reg "x");
        let wrapped =
          Printf.sprintf {|{"labels":{"instance":"pkg-0"},"telemetry":%s}|}
            (Tel.Snapshot.to_json (Tel.Snapshot.take reg))
        in
        match Tel.Json.parse wrapped with
        | None -> Alcotest.fail "wrapped JSON did not parse"
        | Some doc -> (
          match Tel.Snapshot.of_json doc with
          | Error e -> Alcotest.failf "wrapped form rejected: %s" e
          | Ok s ->
            Alcotest.(check int) "counter survives" 1 (Tel.Snapshot.counter_sum s "x")));
    Alcotest.test_case "snapshot_of_json rejects non-snapshots" `Quick (fun () ->
        let reject s =
          match Tel.Json.parse s with
          | None -> ()
          | Some doc -> (
            match Tel.Snapshot.of_json doc with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %s" s)
        in
        List.iter reject [ {|42|}; {|"text"|}; {|[1,2]|} ]);
  ]

(* ---------- staleness ---------- *)

let staleness_tests =
  [
    Alcotest.test_case "failed scrapes freeze the snapshot and trip the SLO" `Quick
      (fun () ->
        let now = ref 100.0 in
        let reachable = ref true in
        let served = Tel.create () in
        Tel.Counter.add (Tel.Counter.v served "rpc.calls") 11;
        let fetch ~host:_ ~port:_ path =
          Alcotest.(check string) "path" "/metrics.json" path;
          if !reachable then Ok (200, Tel.Snapshot.to_json (Tel.Snapshot.take served))
          else Error "refused: connect 127.0.0.1:9: Connection refused"
        in
        let coll =
          Collector.create
            ~clock:(fun () -> !now)
            ~fetch
            [
              Collector.instance ~name:"mixer-0"
                (Collector.Remote { host = "127.0.0.1"; port = 9 });
            ]
        in
        (* before any scrape: nothing known *)
        (match Collector.status coll with
        | [ (_, Collector.Never _, _) ] -> ()
        | _ -> Alcotest.fail "expected Never before first scrape");
        Collector.scrape coll;
        (match Collector.status coll with
        | [ ("mixer-0", Collector.Fresh, age) ] ->
          Alcotest.(check (float 0.0)) "fresh age" 0.0 age
        | _ -> Alcotest.fail "expected Fresh after first scrape");
        (* process dies; 30 simulated seconds pass *)
        reachable := false;
        now := !now +. 30.0;
        Collector.scrape coll;
        (match Collector.status coll with
        | [ ("mixer-0", Collector.Stale reason, age) ] ->
          Alcotest.(check bool)
            ("class prefix kept: " ^ reason)
            true
            (String.length reason >= 8 && String.sub reason 0 8 = "refused:");
          Alcotest.(check (float 1e-9)) "staleness age" 30.0 age
        | _ -> Alcotest.fail "expected Stale after failed scrape");
        let m = Collector.merged coll in
        (* the last good snapshot stays in the merged view... *)
        Alcotest.(check int) "frozen counter" 11 (Tel.Snapshot.counter_sum m "rpc.calls");
        (* ...while the liveness gauges report the failure *)
        let labels = [ ("instance", "mixer-0"); ("role", "mixer") ] in
        Alcotest.(check (option (float 0.0)))
          "down" (Some 0.0) (gauge_value m ~labels "fleet.instance_up");
        Alcotest.(check (option (float 1e-9)))
          "staleness gauge" (Some 30.0) (gauge_value m ~labels "fleet.staleness_seconds");
        let report =
          Collector.evaluate coll (Collector.fleet_rules ~max_staleness:10.0 ())
        in
        Alcotest.(check bool) "fleet unhealthy" false report.Slo.healthy;
        Alcotest.(check bool) "liveness breached" false (find_check report "fleet.instances_up").Slo.pass;
        Alcotest.(check bool) "staleness breached" false
          (find_check report "fleet.staleness_seconds").Slo.pass;
        (* recovery on a new port: repoint, scrape, fresh again *)
        reachable := true;
        now := !now +. 5.0;
        Collector.set_target coll ~name:"mixer-0"
          (Collector.Remote { host = "127.0.0.1"; port = 10 });
        Collector.scrape coll;
        (match Collector.status coll with
        | [ ("mixer-0", Collector.Fresh, _) ] -> ()
        | _ -> Alcotest.fail "expected Fresh after recovery");
        Alcotest.(check (option (float 0.0)))
          "up again" (Some 1.0)
          (gauge_value (Collector.merged coll) ~labels "fleet.instance_up");
        Alcotest.(check int) "three scrapes ringed" 3 (Collector.scrapes coll));
    Alcotest.test_case "create validates instances" `Quick (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Collector.create: no instances") (fun () ->
            ignore (Collector.create ~fetch:no_fetch []));
        let dup () =
          ignore
            (Collector.create ~fetch:no_fetch
               [
                 Collector.instance ~name:"a" (Collector.Local (Tel.create ()));
                 Collector.instance ~name:"a" (Collector.Local (Tel.create ()));
               ])
        in
        match dup () with
        | () -> Alcotest.fail "duplicate names accepted"
        | exception Invalid_argument _ -> ());
  ]

(* ---------- one selection rule ---------- *)

(* The merge keeps label sets sorted, as a registry does, and every
   reader of a local or merged snapshot answers alike for any key. *)
let selection_tests =
  [
    Alcotest.test_case "merged labels sorted; every reader selects by one rule" `Quick (fun () ->
        let r = Tel.create () in
        let on kind domain = [ ("kind", kind); ("domain", domain) ] in
        Tel.Counter.add (Tel.Counter.v r ~labels:(on "crash" "0") "faults.injected") 2;
        Tel.Counter.add (Tel.Counter.v r ~labels:(on "stall" "1") "faults.injected") 5;
        Tel.Gauge.set (Tel.Gauge.v r ~labels:(on "crash" "0") "faults.pending") 3.0;
        Tel.Gauge.set (Tel.Gauge.v r ~labels:(on "stall" "1") "faults.pending") 7.0;
        let recovery d = Tel.Histogram.v r ~labels:(on "crash" d) "faults.recovery_seconds" in
        List.iter (fun (d, v) -> Tel.Histogram.observe (recovery d) v) [ ("0", 1.0); ("0", 2.0); ("1", 5.0) ];
        Tel.Span.emit r ~labels:(on "crash" "0") ~name:"faults.recover" ~ts:0.0 ~dur:1.0 ();
        let coll = Collector.create ~fetch:no_fetch [ Collector.instance ~name:"mixer-0" (Collector.Local r) ] in
        Collector.scrape coll;
        let plain = Tel.Snapshot.take r and merged = Collector.merged coll in
        let labels l = List.map (fun (_, l, _) -> l) l in
        List.iter
          (fun l -> Alcotest.(check (list (pair string string))) "merged labels sorted" (List.sort compare l) l)
          (labels merged.counters @ labels merged.gauges @ labels merged.histograms
          @ List.map (fun (sp : Tel.Snapshot.span) -> sp.labels) merged.spans);
        let f = Alcotest.float 0.0 in
        let agree (snap : Tel.Snapshot.t) =
          (* the snapshot after an empty one: the ring's deltas are its values *)
          let ring = Timeseries.create_detached () in
          Timeseries.record_snapshot ring ~ts:0.0 { snap with counters = []; gauges = []; histograms = [] };
          Timeseries.record_snapshot ring ~ts:1.0 snap;
          let ring' = Result.get_ok (Timeseries.of_jsonl (Timeseries.to_jsonl ring)) in
          let printed l = List.map (fun (n, l, _) -> Tel.metric_key n l) l in
          List.iter
            (fun key ->
              let c = Tel.Snapshot.counter snap key and h = Tel.Snapshot.histogram snap key in
              let worst f =
                match Tel.Snapshot.gauges snap key with [] -> None | v :: vs -> Some (List.fold_left f v vs)
              in
              let hist_max = Option.map (fun (h : Tel.Histogram.snap) -> h.max_v) h in
              Alcotest.(check (list (option f)))
                ("Slo " ^ key)
                [ Option.map float_of_int c; worst Float.max; worst Float.min; hist_max ]
                (List.map (Slo.value_of snap) [ Counter key; Gauge key; Gauge_min key; Hist_max key ]);
              (* a histogram's one point is its count in the interval *)
              let ring_answers ring =
                [
                  Some (Timeseries.rate ring key);
                  Option.map (fun (_, mx, _) -> mx) (Timeseries.gauge_stats ring key);
                  (match Timeseries.points ring key with [ (_, n) ] when h <> None -> Some n | _ -> None);
                ]
              in
              let expected =
                [
                  Some (float_of_int (Option.value c ~default:0));
                  worst Float.max;
                  Option.map (fun (h : Tel.Histogram.snap) -> float_of_int h.count) h;
                ]
              in
              Alcotest.(check (list (option f))) ("ring " ^ key) expected (ring_answers ring);
              Alcotest.(check (list (option f))) ("ring read back " ^ key) expected (ring_answers ring');
              Alcotest.(check bool) ("mem " ^ key) (c <> None || worst Float.max <> None || h <> None)
                (Timeseries.mem ring' key))
            ([ "faults.injected"; "faults.pending"; "faults.recovery_seconds"; "ghost" ]
            @ [ "faults.injected{kind=crash,domain=0}" ]
            @ printed snap.counters @ printed snap.gauges @ printed snap.histograms)
        in
        agree plain;
        agree merged;
        (* and the rule itself: a bare name sums, an exact key selects one *)
        Alcotest.(check (list (option int)))
          "counters" [ Some 7; Some 2; Some 7; Some 2 ]
          (List.map2 Tel.Snapshot.counter [ plain; plain; merged; merged ]
             [
               "faults.injected";
               "faults.injected{domain=0,kind=crash}";
               "faults.injected";
               "faults.injected{domain=0,instance=mixer-0,kind=crash,role=mixer}";
             ]));
  ]

let suite = exposition_tests @ merge_tests @ parse_tests @ staleness_tests @ selection_tests
