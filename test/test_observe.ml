(* Observability stack: Prometheus exposition edge cases, time-series
   ring queries on both clocks, the from-scratch TCP listener end to end
   (the CI endpoint smoke test — no curl), and dashboard rendering. *)

module Tel = Alpenhorn_telemetry.Telemetry
module Expose = Alpenhorn_telemetry.Expose
module Timeseries = Alpenhorn_telemetry.Timeseries
module Slo = Alpenhorn_telemetry.Slo
module Dashboard = Alpenhorn_telemetry.Dashboard
module Listener = Alpenhorn_net.Listener

let fresh () = Tel.create ()

(* A registry with one of each metric kind, including hostile label
   values and names needing sanitization. *)
let populated () =
  let r = fresh () in
  let c = Tel.Counter.v r ~labels:[ ("phase", "add\"friend\\x\n") ] "round.completed" in
  Tel.Counter.add c 7;
  Tel.Gauge.set (Tel.Gauge.v r "heap-words") 1.5e6;
  Tel.Gauge.set (Tel.Gauge.v r "util.nan") Float.nan;
  Tel.Gauge.set (Tel.Gauge.v r "util.inf") Float.infinity;
  let h = Tel.Histogram.v r "mix.unwrap_seconds" in
  List.iter (Tel.Histogram.observe h) [ 0.001; 0.004; 0.004; 0.5 ];
  r

(* Parse `name{labels} value` exposition lines into an assoc list,
   skipping comments. *)
let prom_lines body =
  String.split_on_char '\n' body
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.rindex_opt l ' ' with
         | Some i ->
           (String.sub l 0 i, float_of_string (String.sub l (i + 1) (String.length l - i - 1)))
         | None -> Alcotest.failf "unparseable exposition line: %s" l)

let exposition_tests =
  [
    Alcotest.test_case "name sanitization" `Quick (fun () ->
        Alcotest.(check string) "dots to underscores" "mix_onions_in"
          (Expose.sanitize_name "mix.onions_in");
        Alcotest.(check string) "dashes to underscores" "heap_words"
          (Expose.sanitize_name "heap-words");
        Alcotest.(check string) "colon survives" "a:b" (Expose.sanitize_name "a:b");
        Alcotest.(check string) "leading digit prefixed" "_9lives"
          (Expose.sanitize_name "9lives"));
    Alcotest.test_case "label value escaping" `Quick (fun () ->
        Alcotest.(check string) "backslash quote newline" "a\\\\b\\\"c\\nd"
          (Expose.escape_label_value "a\\b\"c\nd");
        Alcotest.(check string) "clean value untouched" "dialing"
          (Expose.escape_label_value "dialing"));
    Alcotest.test_case "metrics_text: escapes, buckets cumulative, non-finite" `Quick
      (fun () ->
        let body = Expose.metrics_text (Tel.Snapshot.take (populated ())) in
        Alcotest.(check bool) "TYPE comments present" true
          (let rec has_sub i =
             i + 6 <= String.length body
             && (String.sub body i 6 = "# TYPE" || has_sub (i + 1))
           in
           has_sub 0);
        let series = prom_lines body in
        Alcotest.(check (float 0.0)) "counter with escaped label" 7.0
          (List.assoc "round_completed{phase=\"add\\\"friend\\\\x\\n\"}" series);
        Alcotest.(check (float 0.0)) "sanitized gauge" 1.5e6 (List.assoc "heap_words" series);
        Alcotest.(check bool) "NaN gauge spelled NaN" true
          (Float.is_nan (List.assoc "util_nan" series));
        Alcotest.(check (float 0.0)) "Inf gauge" Float.infinity (List.assoc "util_inf" series);
        (* histogram: _count/_sum plus cumulative le buckets ending at +Inf *)
        Alcotest.(check (float 0.0)) "hist count" 4.0
          (List.assoc "mix_unwrap_seconds_count" series);
        Alcotest.(check (float 1e-9)) "hist sum" 0.509 (List.assoc "mix_unwrap_seconds_sum" series);
        let buckets =
          List.filter_map
            (fun (k, v) ->
              let pre = "mix_unwrap_seconds_bucket{le=\"" in
              let lp = String.length pre in
              if String.length k > lp && String.sub k 0 lp = pre then Some v else None)
            series
        in
        Alcotest.(check bool) "at least two buckets" true (List.length buckets >= 2);
        let rec monotone = function
          | a :: (b :: _ as rest) -> a <= b && monotone rest
          | _ -> true
        in
        Alcotest.(check bool) "le buckets are cumulative (monotone)" true (monotone buckets);
        Alcotest.(check (float 0.0)) "last bucket is +Inf with total count" 4.0
          (List.assoc "mix_unwrap_seconds_bucket{le=\"+Inf\"}" series));
    Alcotest.test_case "handle: routing, /metrics.json validity, /slo status" `Quick
      (fun () ->
        let r = populated () in
        let cfg = Expose.config ~registry:r () in
        let get path ?(query = []) () = Expose.handle cfg ~meth:"GET" ~path ~query () in
        Alcotest.(check int) "unknown path 404" 404 (get "/nope" ()).Expose.status;
        Alcotest.(check int) "POST 405"
          405
          (Expose.handle cfg ~meth:"POST" ~path:"/metrics" ~query:[] ()).Expose.status;
        Alcotest.(check int) "/series without ring 404" 404 (get "/series" ()).Expose.status;
        let mj = get "/metrics.json" () in
        Alcotest.(check int) "/metrics.json 200" 200 mj.Expose.status;
        Alcotest.(check bool) "/metrics.json is valid JSON" true (Tel.Json.is_valid mj.Expose.body);
        (* healthy rules -> 200; a failing rule -> 503, body valid either way *)
        let ok = Expose.config ~registry:r ~slo_rules:(Slo.default_rules ()) () in
        let resp = Expose.handle ok ~meth:"GET" ~path:"/slo" ~query:[] () in
        Alcotest.(check int) "healthy /slo 200" 200 resp.Expose.status;
        Alcotest.(check bool) "healthy body valid JSON" true (Tel.Json.is_valid resp.Expose.body);
        let failing =
          [ Slo.rule ~name:"impossible" ~description:"" (Slo.Gauge "heap-words") Slo.Le 1.0 ]
        in
        let bad = Expose.config ~registry:r ~slo_rules:failing () in
        let resp = Expose.handle bad ~meth:"GET" ~path:"/slo" ~query:[] () in
        Alcotest.(check int) "unhealthy /slo 503" 503 resp.Expose.status;
        Alcotest.(check bool) "unhealthy body valid JSON" true (Tel.Json.is_valid resp.Expose.body));
  ]

(* Drive a registry on a manual sim clock and record samples at chosen
   instants. *)
let sim_registry () =
  let r = fresh () in
  let now = ref 0.0 in
  Tel.set_clock r ~kind:"sim" (fun () -> !now);
  (r, now)

let timeseries_tests =
  [
    Alcotest.test_case "rate, quantile and points over a window" `Quick (fun () ->
        let r, now = sim_registry () in
        let ring = Timeseries.create ~capacity:16 r in
        let c = Tel.Counter.v r "rounds" in
        let h = Tel.Histogram.v r "lat" in
        for i = 1 to 5 do
          now := float_of_int i;
          Tel.Counter.add c 10;
          Tel.Histogram.observe h 0.01;
          Timeseries.record ring
        done;
        Alcotest.(check int) "five samples" 5 (Timeseries.length ring);
        Alcotest.(check (float 1e-9)) "span" 4.0 (Timeseries.span_seconds ring);
        Alcotest.(check (float 1e-6)) "counter rate 10/s" 10.0 (Timeseries.rate ring "rounds");
        Alcotest.(check int) "one point per consecutive pair" 4
          (List.length (Timeseries.points ring "rounds"));
        let q = Timeseries.quantile ring "lat" 0.5 in
        Alcotest.(check bool) "p50 in the observed bucket" true (q > 0.0 && q < 0.1);
        Alcotest.(check bool) "absent key rates 0" true (Timeseries.rate ring "ghost" = 0.0));
    Alcotest.test_case "reset-tolerant: counter reset does not go negative" `Quick (fun () ->
        let r, now = sim_registry () in
        let ring = Timeseries.create ~capacity:8 r in
        let c = Tel.Counter.v r "n" in
        now := 1.0;
        Tel.Counter.add c 100;
        Timeseries.record ring;
        ignore (Tel.Snapshot.take ~reset:true r);
        now := 2.0;
        Tel.Counter.add c 5;
        Timeseries.record ring;
        (* cumulative dropped 100 -> 5; the clamp discards the discontinuity *)
        Alcotest.(check bool) "rate clamped at zero" true (Timeseries.rate ring "n" >= 0.0));
    Alcotest.test_case "clock restart clears the ring (new epoch)" `Quick (fun () ->
        let r, now = sim_registry () in
        let ring = Timeseries.create ~capacity:8 r in
        now := 50.0;
        Timeseries.record ring;
        now := 60.0;
        Timeseries.record ring;
        Alcotest.(check int) "two samples" 2 (Timeseries.length ring);
        (* a DES restart rewinds the registry clock *)
        now := 0.5;
        Timeseries.record ring;
        Alcotest.(check int) "ring cleared to the new epoch" 1 (Timeseries.length ring);
        Alcotest.(check (option (float 1e-9))) "newest ts from the new epoch" (Some 0.5)
          (Timeseries.last_ts ring));
    Alcotest.test_case "to_jsonl/of_jsonl round-trip preserves queries" `Quick (fun () ->
        let r, now = sim_registry () in
        let ring = Timeseries.create ~capacity:8 r in
        let c = Tel.Counter.v r ~labels:[ ("phase", "dialing") ] "rounds" in
        let g = Tel.Gauge.v r "depth" in
        for i = 1 to 4 do
          now := float_of_int i *. 0.25;
          Tel.Counter.add c 3;
          Tel.Gauge.set g (float_of_int i);
          Timeseries.record ring
        done;
        let dump = Timeseries.to_jsonl ring in
        String.split_on_char '\n' (String.trim dump)
        |> List.iter (fun l ->
               Alcotest.(check bool) "each line valid JSON" true (Tel.Json.is_valid l));
        match Timeseries.of_jsonl dump with
        | Error e -> Alcotest.failf "of_jsonl: %s" e
        | Ok ring' ->
          Alcotest.(check int) "same length" 4 (Timeseries.length ring');
          Alcotest.(check (float 1e-9)) "sub-second timestamps survive (span)"
            (Timeseries.span_seconds ring) (Timeseries.span_seconds ring');
          Alcotest.(check (float 1e-6)) "same rate"
            (Timeseries.rate ring "rounds{phase=dialing}")
            (Timeseries.rate ring' "rounds{phase=dialing}");
          Alcotest.(check (option (pair (pair (float 1e-9) (float 1e-9)) (float 1e-9))))
            "same gauge stats"
            (Option.map (fun (a, b, c) -> ((a, b), c)) (Timeseries.gauge_stats ring "depth"))
            (Option.map (fun (a, b, c) -> ((a, b), c)) (Timeseries.gauge_stats ring' "depth")));
    Alcotest.test_case "to_jsonl/of_jsonl gives back every sample bit for bit" `Quick (fun () ->
        let r = fresh () in
        let c = Tel.Counter.v r ~labels:[ ("path", "a\"b\\c\nd\001\xc3\xbc") ] "bytes" in
        let g = Tel.Gauge.v r "ratio" and nan_g = Tel.Gauge.v r "undefined" in
        let h = Tel.Histogram.v r "mix.unwrap_seconds" in
        ignore (Tel.Histogram.v r "never.observed");
        let ring = Timeseries.create_detached ~capacity:8 () in
        List.iteri
          (fun i ts ->
            Tel.Counter.add c (1 lsl 40);
            Tel.Gauge.set g (0.1 +. (0.2 *. float_of_int i));
            Tel.Gauge.set nan_g Float.nan;
            Tel.Histogram.observe h (0.1 +. 0.2);
            Timeseries.record_snapshot ring ~ts (Tel.Snapshot.take r))
          (* wall-clock stamps 0.1 s apart need 17 significant digits *)
          [ 1760745600.1234567; 1760745600.2234567; 1760745600.3234567 ];
        let fingerprint ring =
          List.map
            (fun (s : Timeseries.sample) ->
              let hist (h : Tel.Histogram.snap) =
                (h.count, Int64.bits_of_float h.sum, Int64.bits_of_float h.min_v,
                 Int64.bits_of_float h.max_v, Array.to_list h.buckets)
              in
              ( Int64.bits_of_float s.ts,
                s.snap.counters,
                List.map (fun (n, l, v) -> (n, l, Int64.bits_of_float v)) s.snap.gauges,
                List.map (fun (n, l, v) -> (n, l, hist v)) s.snap.histograms ))
            (Timeseries.samples ring)
        in
        match Timeseries.of_jsonl (Timeseries.to_jsonl ring) with
        | Error e -> Alcotest.failf "of_jsonl: %s" e
        | Ok ring' ->
          Alcotest.(check int) "three samples" 3 (List.length (Timeseries.samples ring'));
          if fingerprint ring' <> fingerprint ring then
            Alcotest.failf "samples changed:\n%s%s" (Timeseries.to_jsonl ring) (Timeseries.to_jsonl ring'));
  ]

(* The CI endpoint smoke test: a real listener on an ephemeral port,
   scraped with the in-repo fetch client while metrics move underneath. *)
let listener_tests =
  [
    Alcotest.test_case "serve /metrics and /slo over real TCP" `Quick (fun () ->
        let r = populated () in
        let cfg = Expose.config ~registry:r ~slo_rules:(Slo.default_rules ()) () in
        let handler (req : Listener.request) =
          let resp = Expose.handle cfg ~meth:req.meth ~path:req.path ~query:req.query () in
          {
            Listener.status = resp.Expose.status;
            content_type = resp.Expose.content_type;
            body = resp.Expose.body;
          }
        in
        let t = Listener.create ~port:0 handler in
        let port = Listener.port t in
        Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
        let d = Domain.spawn (fun () -> Listener.run t) in
        Fun.protect
          ~finally:(fun () ->
            Listener.stop t;
            Domain.join d)
          (fun () ->
            (match Listener.fetch ~port "/metrics" with
            | Error e -> Alcotest.failf "/metrics fetch: %s" e
            | Ok (status, body) ->
              Alcotest.(check int) "/metrics 200" 200 status;
              (* counter moved between scrapes shows up in the next one *)
              Alcotest.(check bool) "exposition body non-empty" true
                (List.length (prom_lines body) > 0));
            Tel.Counter.add (Tel.Counter.v r "scrape.extra") 42;
            (match Listener.fetch ~port "/metrics" with
            | Error e -> Alcotest.failf "second fetch: %s" e
            | Ok (_, body) ->
              Alcotest.(check (float 0.0)) "live update visible" 42.0
                (List.assoc "scrape_extra" (prom_lines body)));
            (match Listener.fetch ~port "/metrics.json" with
            | Error e -> Alcotest.failf "/metrics.json fetch: %s" e
            | Ok (status, body) ->
              Alcotest.(check int) "json 200" 200 status;
              Alcotest.(check bool) "parseable" true (Tel.Json.is_valid body));
            (match Listener.fetch ~port "/slo" with
            | Error e -> Alcotest.failf "/slo fetch: %s" e
            | Ok (status, body) ->
              Alcotest.(check int) "healthy 200" 200 status;
              Alcotest.(check bool) "report is JSON" true (Tel.Json.is_valid body));
            match Listener.fetch ~port "/definitely-not-here" with
            | Error e -> Alcotest.failf "404 fetch: %s" e
            | Ok (status, _) -> Alcotest.(check int) "unknown path 404" 404 status));
    Alcotest.test_case "oversized request head answered with 431" `Quick (fun () ->
        let t =
          Listener.create ~max_request_bytes:256 ~port:0 (fun _ ->
              { Listener.status = 200; content_type = "text/plain"; body = "ok" })
        in
        let port = Listener.port t in
        let d = Domain.spawn (fun () -> Listener.run t) in
        Fun.protect
          ~finally:(fun () ->
            Listener.stop t;
            Domain.join d)
          (fun () ->
            let long = "/" ^ String.make 1024 'x' in
            match Listener.fetch ~port long with
            | Error e -> Alcotest.failf "oversized fetch: %s" e
            | Ok (status, _) -> Alcotest.(check int) "431" 431 status));
    Alcotest.test_case "stop drains and frees the port" `Quick (fun () ->
        let t =
          Listener.create ~port:0 (fun _ ->
              { Listener.status = 200; content_type = "text/plain"; body = "ok" })
        in
        let port = Listener.port t in
        let d = Domain.spawn (fun () -> Listener.run t) in
        (match Listener.fetch ~port "/" with
        | Error e -> Alcotest.failf "pre-stop fetch: %s" e
        | Ok (status, body) ->
          Alcotest.(check int) "200" 200 status;
          Alcotest.(check string) "body" "ok" body);
        Listener.stop t;
        Domain.join d;
        (* re-binding the same port proves the descriptors were released *)
        let t2 =
          Listener.create ~port (fun _ ->
              { Listener.status = 200; content_type = "text/plain"; body = "again" })
        in
        Listener.close t2;
        Alcotest.(check bool) "stop is idempotent" true
          (Listener.stop t;
           true));
    Alcotest.test_case "url_decode" `Quick (fun () ->
        Alcotest.(check string) "percent and plus" "a b/c"
          (Listener.url_decode "a+b%2Fc");
        Alcotest.(check string) "invalid escape passes through" "100%zz"
          (Listener.url_decode "100%zz"));
  ]

let dashboard_tests =
  [
    Alcotest.test_case "sparkline shapes" `Quick (fun () ->
        Alcotest.(check string) "empty" "" (Dashboard.sparkline []);
        let up = Dashboard.sparkline [ 0.0; 1.0; 2.0; 3.0 ] in
        Alcotest.(check int) "one glyph (3 bytes) per point" 12 (String.length up);
        Alcotest.(check bool) "ends at full block" true
          (String.length up >= 3 && String.sub up (String.length up - 3) 3 = "\xe2\x96\x88");
        let flat = Dashboard.sparkline [ 5.0; 5.0 ] in
        Alcotest.(check string) "constant series renders mid-height"
          "\xe2\x96\x84\xe2\x96\x84" flat);
    Alcotest.test_case "render a frame on the DES clock, no color" `Quick (fun () ->
        let r, now = sim_registry () in
        let ring = Timeseries.create ~capacity:16 r in
        let c = Tel.Counter.v r ~labels:[ ("phase", "dialing") ] "round.completed" in
        Tel.Gauge.set (Tel.Gauge.v r "runtime.heap_words") 2e6;
        for i = 1 to 6 do
          now := float_of_int i;
          Tel.Counter.inc c;
          Timeseries.record ring
        done;
        let slo = Some (Slo.evaluate (Slo.default_rules ()) (Tel.Snapshot.take r)) in
        let frame = Dashboard.render ~width:80 ~color:false ~ring ~slo () in
        Alcotest.(check bool) "mentions rounds" true
          (let rec has i =
             i + 6 <= String.length frame && (String.sub frame i 6 = "rounds" || has (i + 1))
           in
           has 0);
        Alcotest.(check bool) "no escape sequences without color" true
          (not (String.contains frame '\x1b'));
        String.split_on_char '\n' frame
        |> List.iter (fun l ->
               Alcotest.(check bool) "width respected" true (String.length l <= 80)));
  ]

(* A ring sample keeps no spans, so recording one must not copy them: one
   [record] allocates the same words whether the registry holds no span or
   10 000 of them. *)
let record_cost_tests =
  [
    Alcotest.test_case "record allocates the same with 0 or 10 000 spans" `Quick (fun () ->
        let r, now = sim_registry () in
        let ring = Timeseries.create ~capacity:8 r in
        Tel.Counter.add (Tel.Counter.v r "rounds") 3;
        Tel.Histogram.observe (Tel.Histogram.v r "lat") 0.01;
        let words () =
          now := !now +. 1.0;
          let w0 = Gc.minor_words () in
          Timeseries.record ring;
          Gc.minor_words () -. w0
        in
        ignore (words ());
        let bare = words () in
        for _ = 1 to 10_000 do
          Tel.Span.emit r ~name:"s" ~ts:0.0 ~dur:0.0 ()
        done;
        let loaded = words () in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f words with 10 000 spans, %.0f with none" loaded bare)
          true
          (Float.abs (loaded -. bare) <= 64.0));
  ]

let suite =
  exposition_tests @ timeseries_tests @ listener_tests @ dashboard_tests @ record_cost_tests
