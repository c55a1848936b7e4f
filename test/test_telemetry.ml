(* Telemetry registry: metric semantics, snapshot/reset isolation,
   simulated-clock spans, histogram merge algebra, exporter validity. *)

module Tel = Alpenhorn_telemetry.Telemetry
module Des = Alpenhorn_sim.Des

let fresh () = Tel.create ()

let unit_tests =
  [
    Alcotest.test_case "counter add and handle identity" `Quick (fun () ->
        let r = fresh () in
        let c = Tel.Counter.v r "hits" in
        Tel.Counter.inc c;
        Tel.Counter.add c 4;
        Alcotest.(check int) "value" 5 (Tel.Counter.value c);
        (* same name + labels resolves to the same cell, any label order *)
        let c' = Tel.Counter.v r ~labels:[ ("b", "2"); ("a", "1") ] "hits" in
        let c'' = Tel.Counter.v r ~labels:[ ("a", "1"); ("b", "2") ] "hits" in
        Tel.Counter.inc c';
        Tel.Counter.inc c'';
        Alcotest.(check int) "shared cell" 2 (Tel.Counter.value c');
        Alcotest.(check int) "plain cell untouched" 5 (Tel.Counter.value c));
    Alcotest.test_case "kind mismatch is rejected" `Quick (fun () ->
        let r = fresh () in
        ignore (Tel.Counter.v r "m");
        Alcotest.(check bool) "raises" true
          (try
             ignore (Tel.Histogram.v r "m");
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "gauge keeps the last value" `Quick (fun () ->
        let r = fresh () in
        let g = Tel.Gauge.v r "depth" in
        Tel.Gauge.set g 3.5;
        Tel.Gauge.set g 1.25;
        Alcotest.(check (float 1e-12)) "last write wins" 1.25 (Tel.Gauge.value g));
    Alcotest.test_case "histogram buckets and quantiles" `Quick (fun () ->
        (* bucket layout invariants *)
        Alcotest.(check bool) "lower bound honors bucket_of" true
          (List.for_all
             (fun v ->
               let b = Tel.Histogram.bucket_of v in
               b >= 0 && b < Tel.Histogram.bucket_count && Tel.Histogram.bucket_lower b <= v)
             [ 1e-9; 0.001; 1.0; 3.7; 1e6 ]);
        let r = fresh () in
        let h = Tel.Histogram.v r "lat" in
        List.iter (Tel.Histogram.observe h) [ 0.001; 0.002; 0.004; 0.008; 1.0 ];
        let s = Tel.Histogram.snapshot h in
        Alcotest.(check int) "count" 5 s.Tel.Histogram.count;
        Alcotest.(check (float 1e-9)) "sum" 1.015 s.Tel.Histogram.sum;
        Alcotest.(check (float 1e-12)) "min" 0.001 s.Tel.Histogram.min_v;
        Alcotest.(check (float 1e-12)) "max" 1.0 s.Tel.Histogram.max_v;
        let q50 = Tel.Histogram.quantile s 0.5 in
        Alcotest.(check bool) "p50 in range" true (q50 >= 0.001 && q50 <= 1.0);
        Alcotest.(check (float 1e-12)) "p100 clamps to max" 1.0 (Tel.Histogram.quantile s 1.0);
        Alcotest.(check (float 1e-12)) "empty mean" 0.0 (Tel.Histogram.mean Tel.Histogram.empty));
    Alcotest.test_case "histogram merge is associative with empty identity" `Quick (fun () ->
        let mk vs =
          let r = fresh () in
          let h = Tel.Histogram.v r "x" in
          List.iter (Tel.Histogram.observe h) vs;
          Tel.Histogram.snapshot h
        in
        let a = mk [ 0.001; 0.5 ] and b = mk [ 2.0 ] and c = mk [ 1e-6; 30.0; 0.25 ] in
        let eq what x y =
          Alcotest.(check int) (what ^ " count") x.Tel.Histogram.count y.Tel.Histogram.count;
          Alcotest.(check (float 1e-9)) (what ^ " sum") x.Tel.Histogram.sum y.Tel.Histogram.sum;
          Alcotest.(check (float 1e-12)) (what ^ " min") x.Tel.Histogram.min_v y.Tel.Histogram.min_v;
          Alcotest.(check (float 1e-12)) (what ^ " max") x.Tel.Histogram.max_v y.Tel.Histogram.max_v;
          Alcotest.(check bool) (what ^ " buckets") true
            (x.Tel.Histogram.buckets = y.Tel.Histogram.buckets)
        in
        let ( + ) = Tel.Histogram.merge in
        eq "assoc" ((a + b) + c) (a + (b + c));
        eq "comm" (a + b) (b + a);
        eq "identity" (a + Tel.Histogram.empty) a;
        eq "all" ((a + b) + c) (mk [ 0.001; 0.5; 2.0; 1e-6; 30.0; 0.25 ]));
    Alcotest.test_case "snapshot reset isolates rounds" `Quick (fun () ->
        let r = fresh () in
        let c = Tel.Counter.v r "n" and h = Tel.Histogram.v r "t" in
        Tel.Counter.add c 7;
        Tel.Histogram.observe h 0.5;
        Tel.Span.with_ r "work" (fun () -> ());
        let s1 = Tel.Snapshot.take ~reset:true r in
        Alcotest.(check int) "round 1 counter" 7 (Tel.Snapshot.counter_sum s1 "n");
        Alcotest.(check int) "round 1 spans" 1 (Tel.Snapshot.span_count s1 "work");
        (* after reset, the old handles still work but start from zero *)
        Tel.Counter.inc c;
        let s2 = Tel.Snapshot.take r in
        Alcotest.(check int) "round 2 counter" 1 (Tel.Snapshot.counter_sum s2 "n");
        Alcotest.(check (float 1e-12)) "round 2 histogram" 0.0 (Tel.Snapshot.hist_sum s2 "t");
        Alcotest.(check int) "round 2 spans" 0 (Tel.Snapshot.span_count s2 "work"));
    Alcotest.test_case "span nesting tracks depth" `Quick (fun () ->
        let r = fresh () in
        Tel.Span.with_ r "outer" (fun () ->
            Tel.Span.with_ r "inner" (fun () -> ());
            Tel.Span.with_ r "inner" (fun () -> ()));
        let s = Tel.Snapshot.take r in
        Alcotest.(check int) "three spans" 3 (List.length s.Tel.Snapshot.spans);
        List.iter
          (fun (sp : Tel.Snapshot.span) ->
            let expect = if sp.name = "outer" then 0 else 1 in
            Alcotest.(check int) ("depth of " ^ sp.name) expect sp.depth;
            Alcotest.(check string) "wall clock" "wall" sp.clock;
            Alcotest.(check bool) "nonneg" true (sp.ts >= 0.0 && sp.dur >= 0.0))
          s.Tel.Snapshot.spans;
        (* exception safety: the span is recorded and depth restored *)
        (try Tel.Span.with_ r "boom" (fun () -> failwith "x") with Failure _ -> ());
        Tel.Span.with_ r "after" (fun () -> ());
        let s2 = Tel.Snapshot.take r in
        List.iter
          (fun n -> Alcotest.(check int) (n ^ " at depth 0") 0
             (List.find (fun (sp : Tel.Snapshot.span) -> sp.name = n) s2.Tel.Snapshot.spans).depth)
          [ "boom"; "after" ]);
    Alcotest.test_case "simulated clock spans share the wall schema" `Quick (fun () ->
        let wall = fresh () in
        Tel.Counter.add (Tel.Counter.v wall ~labels:[ ("server", "0") ] "mix.onions_in") 5;
        Tel.Span.with_ wall "round.addfriend" (fun () -> ());
        let sw = Tel.Snapshot.take wall in
        (* same instrumentation driven by the DES clock *)
        let des = Des.create () in
        let sim = Tel.create ~clock:(fun () -> Des.now des) ~clock_kind:"sim" () in
        Tel.Counter.add (Tel.Counter.v sim ~labels:[ ("server", "0") ] "mix.onions_in") 5;
        Des.schedule des ~at:2.0 (fun () ->
            Tel.Span.emit sim ~name:"round.addfriend" ~ts:(Des.now des) ~dur:3.0 ());
        Des.run des;
        let ss = Tel.Snapshot.take sim in
        Alcotest.(check string) "clock kind" "sim" ss.Tel.Snapshot.clock;
        let sp = List.hd ss.Tel.Snapshot.spans in
        Alcotest.(check string) "span clock" "sim" sp.Tel.Snapshot.clock;
        Alcotest.(check (float 1e-9)) "simulated ts" 2.0 sp.Tel.Snapshot.ts;
        Alcotest.(check (float 1e-9)) "simulated dur" 3.0 sp.Tel.Snapshot.dur;
        (* identical JSON schema: same key set in both exports *)
        let keys s =
          let j = Tel.Snapshot.to_json s in
          List.filter
            (fun k -> k <> "")
            (List.map
               (fun part ->
                 match String.index_opt part '"' with
                 | Some 0 -> ( match String.index_from_opt part 1 '"' with
                               | Some e -> String.sub part 1 (e - 1)
                               | None -> "" )
                 | _ -> "")
               (String.split_on_char ',' (String.concat "," (String.split_on_char '{' j))))
          |> List.sort_uniq compare
        in
        Alcotest.(check (list string)) "schema keys match" (keys sw) (keys ss));
    Alcotest.test_case "with_clock restores and re-anchors" `Quick (fun () ->
        let r = fresh () in
        let des = Des.create () in
        Des.schedule des ~at:5.0 (fun () -> ());
        Tel.with_clock r ~kind:"sim" (fun () -> Des.now des) (fun () ->
            Alcotest.(check string) "inside" "sim" (Tel.clock_kind r);
            Des.run des;
            Tel.Span.emit r ~name:"evt" ~ts:(Des.now des) ~dur:1.0 ());
        Alcotest.(check string) "restored" "wall" (Tel.clock_kind r);
        let s = Tel.Snapshot.take r in
        let sp = List.hd s.Tel.Snapshot.spans in
        Alcotest.(check string) "span kept sim clock" "sim" sp.Tel.Snapshot.clock;
        Alcotest.(check (float 1e-9)) "span kept sim ts" 5.0 sp.Tel.Snapshot.ts);
    Alcotest.test_case "exporters emit valid JSON" `Quick (fun () ->
        let r = fresh () in
        Tel.Counter.add (Tel.Counter.v r ~labels:[ ("server", "1") ] "mix.onions_in") 3;
        Tel.Gauge.set (Tel.Gauge.v r "load") 0.5;
        Tel.Histogram.observe (Tel.Histogram.v r "lat\"ency\\") 0.004;
        Tel.Span.with_ r ~labels:[ ("server", "1") ] "mix.server_process" (fun () -> ());
        let s = Tel.Snapshot.take r in
        Alcotest.(check bool) "to_json" true (Tel.Json.is_valid (Tel.Snapshot.to_json s));
        Alcotest.(check bool) "to_chrome_trace" true
          (Tel.Json.is_valid (Tel.Snapshot.to_chrome_trace s));
        (* the table printer must not raise *)
        ignore (Format.asprintf "%a" Tel.Snapshot.pp_table s));
    Alcotest.test_case "Json.is_valid agrees with RFC 8259" `Quick (fun () ->
        List.iter
          (fun j -> Alcotest.(check bool) ("valid: " ^ j) true (Tel.Json.is_valid j))
          [
            "{}"; "[]"; "null"; "true"; "-0.5e-3"; "\"a\\u00e9\\n\"";
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"\"}"; " [ 1 , 2 ] ";
          ];
        List.iter
          (fun j -> Alcotest.(check bool) ("invalid: " ^ j) false (Tel.Json.is_valid j))
          [
            ""; "{"; "[1,]"; "{\"a\":}"; "{a:1}"; "01"; "1.2.3"; "\"unterminated";
            "\"bad\\x\""; "nulll"; "[1] trailing"; "+1"; "\"\\u12g4\"";
          ]);
  ]

(* A span straddling a clock swap must keep its opening clock — both the
   recorded kind and the timebase (a wall-epoch span read against a sim
   clock would show an absurd ts/dur). *)
let straddle_tests =
  [
    Alcotest.test_case "clock swap mid-span cannot mix timebases" `Quick (fun () ->
        let r = fresh () in
        let sim = ref 1_000_000.0 in
        Tel.Span.with_ r "straddler" (fun () ->
            Tel.set_clock r ~kind:"sim" (fun () -> !sim);
            sim := !sim +. 5.0);
        let s = Tel.Snapshot.take r in
        match s.Tel.Snapshot.spans with
        | [ sp ] ->
          Alcotest.(check string) "keeps its opening clock kind" "wall" sp.clock;
          Alcotest.(check bool) "ts stays epoch-relative wall, not sim-absolute" true
            (sp.ts >= 0.0 && sp.ts < 60.0);
          Alcotest.(check bool) "dur sane and non-negative" true
            (sp.dur >= 0.0 && sp.dur < 60.0)
        | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
  ]

let json_parse_tests =
  [
    Alcotest.test_case "Json.parse structure and accessors" `Quick (fun () ->
        let doc =
          match Tel.Json.parse {|{"a": [1, {"b": -2.5e1}], "s": "xé", "n": null}|} with
          | Some d -> d
          | None -> Alcotest.fail "parse failed"
        in
        let num path_steps =
          List.fold_left
            (fun acc step -> Option.bind acc step)
            (Some doc) path_steps
          |> fun v -> Option.bind v Tel.Json.to_num
        in
        Alcotest.(check (option (float 1e-9))) "a[0]" (Some 1.0)
          (num [ Tel.Json.member "a"; Tel.Json.index 0 ]);
        Alcotest.(check (option (float 1e-9))) "a[1].b" (Some (-25.0))
          (num [ Tel.Json.member "a"; Tel.Json.index 1; Tel.Json.member "b" ]);
        Alcotest.(check (option string)) "unicode escape decoded" (Some "x\xc3\xa9")
          (Option.bind (Tel.Json.member "s" doc) Tel.Json.to_str);
        Alcotest.(check bool) "null member present" true (Tel.Json.member "n" doc = Some Tel.Json.Null);
        Alcotest.(check bool) "absent member" true (Tel.Json.member "zz" doc = None);
        Alcotest.(check (list (pair string (float 1e-9)))) "number_leaves with array paths"
          [ ("a.0", 1.0); ("a.1.b", -25.0) ]
          (Tel.Json.number_leaves doc));
  ]

let events_tests =
  [
    Alcotest.test_case "ring overwrites oldest and counts drops" `Quick (fun () ->
        let r = fresh () in
        let ev = Alpenhorn_telemetry.Events.create ~capacity:3 r in
        let module E = Alpenhorn_telemetry.Events in
        for i = 1 to 5 do
          E.log ev ~labels:[ ("i", string_of_int i) ] "tick"
        done;
        Alcotest.(check int) "length capped at capacity" 3 (E.length ev);
        Alcotest.(check int) "two events overwritten" 2 (E.dropped ev);
        Alcotest.(check (list string)) "oldest-first, oldest two gone"
          [ "3"; "4"; "5" ]
          (List.map (fun (e : E.event) -> List.assoc "i" e.E.labels) (E.to_list ev));
        E.clear ev;
        Alcotest.(check int) "clear empties" 0 (E.length ev);
        Alcotest.(check int) "clear resets drops" 0 (E.dropped ev);
        Alcotest.(check bool) "capacity < 1 rejected" true
          (try
             ignore (E.create ~capacity:0 r);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "JSON-lines exporter is valid on both clocks" `Quick (fun () ->
        let module E = Alpenhorn_telemetry.Events in
        let check_registry r expected_clock =
          let ev = E.create ~capacity:16 r in
          E.log ev ~severity:E.Warn
            ~labels:[ ("server", "2") ]
            ~detail:"7 onions failed to decrypt \"quoted\"" "mix.decode_failure";
          E.log ev "round.close";
          let lines = String.split_on_char '\n' (String.trim (E.to_jsonl ev)) in
          Alcotest.(check int) "one line per event" 2 (List.length lines);
          List.iter
            (fun line ->
              Alcotest.(check bool) ("valid JSON: " ^ line) true (Tel.Json.is_valid line);
              let doc = Option.get (Tel.Json.parse line) in
              Alcotest.(check (option string)) "clock field" (Some expected_clock)
                (Option.bind (Tel.Json.member "clock" doc) Tel.Json.to_str);
              Alcotest.(check bool) "severity field present" true
                (Tel.Json.member "severity" doc <> None))
            lines
        in
        check_registry (fresh ()) "wall";
        let sim = fresh () in
        Tel.set_clock sim ~kind:"sim" (fun () -> 42.0);
        check_registry sim "sim");
  ]

(* Satellite regression: Snapshot.take ~reset:true is linearizable
   against concurrent writers. Four domains hammer a counter and a
   histogram while the main domain snapshots-and-resets in a loop; every
   increment must land in exactly one snapshot or in the final live
   value — never lost, never doubled (the lost-update window the atomic
   exchange closed). *)
let reset_conservation_tests =
  [
    Alcotest.test_case "reset snapshots conserve concurrent increments" `Quick (fun () ->
        let r = fresh () in
        let per_domain = 20_000 and domains = 4 in
        let still_writing = Atomic.make domains in
        let writer () =
          let c = Tel.Counter.v r "conserved" in
          let h = Tel.Histogram.v r "conserved_h" in
          for i = 1 to per_domain do
            Tel.Counter.inc c;
            Tel.Histogram.observe h (float_of_int (i land 7))
          done;
          ignore (Atomic.fetch_and_add still_writing (-1))
        in
        let ds = List.init domains (fun _ -> Domain.spawn writer) in
        let seen = ref 0 and seen_h = ref 0 in
        let accumulate (snap : Tel.Snapshot.t) =
          seen := !seen + Tel.Snapshot.counter_sum snap "conserved";
          Option.iter
            (fun (h : Tel.Histogram.snap) -> seen_h := !seen_h + h.count)
            (Tel.Snapshot.histogram snap "conserved_h")
        in
        (* snapshot-and-reset while the writers are mid-flight *)
        while Atomic.get still_writing > 0 do
          accumulate (Tel.Snapshot.take ~reset:true r)
        done;
        List.iter Domain.join ds;
        (* the stragglers land in the final live snapshot *)
        accumulate (Tel.Snapshot.take r);
        Alcotest.(check int) "counter increments conserved" (domains * per_domain) !seen;
        Alcotest.(check int) "histogram observations conserved" (domains * per_domain) !seen_h);
  ]

module Runtime_stats = Alpenhorn_telemetry.Runtime_stats

let runtime_stats_tests =
  [
    Alcotest.test_case "runtime sampler counts words between collections" `Quick (fun () ->
        let r = fresh () in
        (* no pause probe, so sampling forces no collection *)
        let rs = Runtime_stats.install ~registry:r ~min_probe_interval:infinity () in
        let minor_words = Tel.Counter.v r "runtime.alloc.minor_words" in
        let major_words = Tel.Counter.v r "runtime.alloc.major_words" in
        (* an empty minor heap, so 1 000 cells fit without a collection *)
        Gc.minor ();
        let collections () = (Gc.quick_stat ()).Gc.minor_collections in
        let c0 = collections () in
        Runtime_stats.sample rs;
        let w0 = Tel.Counter.value minor_words in
        let cells = ref [] in
        for i = 1 to 1000 do
          cells := i :: !cells
        done;
        Runtime_stats.sample rs;
        let w = Tel.Counter.value minor_words - w0 in
        ignore (Sys.opaque_identity !cells);
        Alcotest.(check int) "no collection in between" c0 (collections ());
        Alcotest.(check bool)
          (Printf.sprintf "%d words for 1 000 cells (3 each)" w)
          true (w >= 3000);
        (* an array past the minor heap's block limit is allocated in the
           major heap directly *)
        let m0 = Tel.Counter.value major_words in
        ignore (Sys.opaque_identity (Array.make 1000 0));
        Runtime_stats.sample rs;
        let m = Tel.Counter.value major_words - m0 in
        Alcotest.(check bool) (Printf.sprintf "%d major words for a 1 001-word array" m) true (m >= 1001));
    Alcotest.test_case "runtime sampler counts each domain's words once" `Quick (fun () ->
        (* far more words on this domain's lifetime count than the test
           allocates between its samples *)
        ignore (Sys.opaque_identity (List.init 1_000_000 Fun.id));
        let r = fresh () in
        let rs = Runtime_stats.install ~registry:r ~min_probe_interval:infinity () in
        let minor_words = Tel.Counter.v r "runtime.alloc.minor_words" in
        let own () = Gc.minor_words () in
        let cons n =
          let cells = ref [] in
          for i = 1 to n do
            cells := i :: !cells
          done;
          ignore (Sys.opaque_identity !cells)
        in
        Gc.minor ();
        Runtime_stats.sample rs;
        let w0 = Tel.Counter.value minor_words and m0 = own () in
        cons 10_000;
        (* a second domain samples between this domain's two samples,
           and allocates both before and after its sample *)
        let worker =
          Domain.spawn (fun () ->
              let m0 = own () in
              cons 10_000;
              Runtime_stats.sample rs;
              cons 10_000;
              own () -. m0)
        in
        let theirs = Domain.join worker in
        (* bring the program-wide count up to date *)
        Gc.minor ();
        Runtime_stats.sample rs;
        let mine = own () -. m0 and w = float_of_int (Tel.Counter.value minor_words - w0) in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f words counted, at least the 90 000 allocated" w)
          true (w >= 90_000.0);
        Alcotest.(check bool)
          (Printf.sprintf "%.0f words counted, at most the %.0f allocated (+ 4 096)" w
             (mine +. theirs))
          true
          (w <= mine +. theirs +. 4096.0));
  ]

(* ---------- the one JSON writer: decode what was encoded ---------- *)

let bits = Int64.bits_of_float

(* a snapshot with every float as its bit pattern, so structural
   equality is bit-for-bit equality (nan included) *)
let fingerprint (s : Tel.Snapshot.t) =
  let hist (h : Tel.Histogram.snap) =
    (h.count, bits h.sum, bits h.min_v, bits h.max_v, Array.to_list h.buckets)
  in
  ( s.clock,
    s.counters,
    List.map (fun (n, l, v) -> (n, l, bits v)) s.gauges,
    List.map (fun (n, l, h) -> (n, l, hist h)) s.histograms,
    List.map
      (fun (sp : Tel.Snapshot.span) -> (sp.name, sp.labels, bits sp.ts, bits sp.dur, sp.depth, sp.clock))
      s.spans,
    s.dropped_spans )

(* labels no escaper may lose: quote, backslash, newline, tab, a raw
   control byte and UTF-8 *)
let hostile_labels =
  [
    ("q", "say \"hi\"");
    ("bs", "C:\\dir");
    ("nl", "a\nb");
    ("tab", "a\tb");
    ("ctl", "x\001y");
    ("utf8", "z\xc3\xbcrich \xe2\x9c\x93");
  ]

(* needs all 17 significant digits *)
let ts17 = 1760745600.1234567

let tricky_snapshot =
  let h = Tel.Histogram.v (fresh ()) "h" in
  Tel.Histogram.observe h 0.1;
  Tel.Histogram.observe h 0.2;
  let full = Tel.Histogram.snapshot h in
  {
    Tel.Snapshot.clock = "wall";
    counters = [ ("c.big", hostile_labels, 1 lsl 40); ("c.zero", [], 0) ];
    gauges =
      [
        ("g.sum", [], 0.1 +. 0.2);
        ("g.nan", [], Float.nan);
        ("g.inf", [], Float.infinity);
        ("g.neg_inf", hostile_labels, Float.neg_infinity);
        ("g.neg_zero", [], -0.0);
      ];
    histograms = [ ("h.empty", [], Tel.Histogram.empty); ("h.full", [ ("k", "v") ], full) ];
    spans =
      [
        {
          Tel.Snapshot.name = "round.dialing";
          labels = hostile_labels;
          ts = ts17;
          dur = 0.1 +. 0.2;
          depth = 2;
          clock = "sim";
        };
      ];
    dropped_spans = 3;
  }

let json_roundtrip_tests =
  [
    Alcotest.test_case "Snapshot.of_json reads to_json back bit for bit" `Quick (fun () ->
        Alcotest.(check bool) "ts17 needs 17 digits" false
          (float_of_string (Printf.sprintf "%.16g" ts17) = ts17);
        let full = List.find (fun (n, _, _) -> n = "h.full") tricky_snapshot.histograms in
        Alcotest.(check (float 0.0)) "the full histogram's sum needs 17 digits" 0.30000000000000004
          (let _, _, h = full in h.Tel.Histogram.sum);
        let text = Tel.Snapshot.to_json tricky_snapshot in
        let back =
          match Option.map Tel.Snapshot.of_json (Tel.Json.parse text) with
          | Some (Ok s) -> s
          | Some (Error e) -> Alcotest.failf "of_json: %s" e
          | None -> Alcotest.failf "unparseable: %s" text
        in
        (* JSON has no infinity: the writer prints every non-finite
           number as null and the reader gives nan back *)
        let expected =
          {
            tricky_snapshot with
            gauges =
              List.map
                (fun (n, l, v) -> (n, l, if Float.is_finite v then v else Float.nan))
                tricky_snapshot.gauges;
          }
        in
        if fingerprint back <> fingerprint expected then
          Alcotest.failf "round trip changed the snapshot:\n%s\n%s" text (Tel.Snapshot.to_json back));
    Alcotest.test_case "Snapshot.of_json is total over one-member mutants" `Quick (fun () ->
        let doc = Option.get (Tel.Json.parse (Tel.Snapshot.to_json tricky_snapshot)) in
        let kinds =
          Tel.Json.
            [
              Null; Bool true; Num 1e300; Num (-0.5); Num 3.0; Str "x"; Arr []; Arr [ Num 1.0 ]; Obj [];
              Obj [ ("k", Str "v") ];
            ]
        in
        (* every document that differs from [doc] in exactly one object
           member or array element *)
        let rec mutants (v : Tel.Json.t) =
          let replace_each xs rebuild mutate_one =
            List.concat
              (List.mapi
                 (fun i x ->
                   let put y = rebuild (List.mapi (fun j x' -> if i = j then y else x') xs) in
                   List.map put (mutate_one x))
                 xs)
          in
          match v with
          | Tel.Json.Obj kvs ->
            replace_each kvs (fun kvs -> Tel.Json.Obj kvs) (fun (k, x) ->
                List.map (fun y -> (k, y)) (kinds @ mutants x))
          | Tel.Json.Arr xs -> replace_each xs (fun xs -> Tel.Json.Arr xs) (fun x -> kinds @ mutants x)
          | _ -> []
        in
        let all = mutants doc in
        Alcotest.(check bool) "hundreds of mutants" true (List.length all > 500);
        let accepted =
          List.fold_left
            (fun n m ->
              match Tel.Snapshot.of_json m with
              | Ok _ -> n + 1
              | Error _ -> n
              | exception e -> Alcotest.failf "of_json raised %s" (Printexc.to_string e))
            0 all
        in
        Alcotest.(check bool) "most mutants are rejected" true (accepted < List.length all / 2));
    Alcotest.test_case "an event line reads back bit for bit" `Quick (fun () ->
        let module E = Alpenhorn_telemetry.Events in
        let now = ref 0.1 in
        let r = Tel.create ~clock:(fun () -> !now) () in
        let ev = E.create r in
        now := 0.4;
        E.log ev ~severity:E.Warn ~labels:hostile_labels ~detail:"d\"\\\n\001" "mix.decode_failure";
        let e = List.hd (E.to_list ev) in
        Alcotest.(check (float 0.0)) "ts needs 17 digits" 0.30000000000000004 e.E.ts;
        let doc = Option.get (Tel.Json.parse (E.event_to_json e)) in
        let get k f = Option.get (Tel.Json.get k f doc) in
        Alcotest.(check int64) "ts" (bits e.E.ts) (bits (get "ts" Tel.Json.to_num));
        Alcotest.(check string) "detail" e.E.detail (get "detail" Tel.Json.to_str);
        Alcotest.(check (list (pair string string)))
          "labels" e.E.labels
          (get "labels" (Tel.Json.to_fields Tel.Json.to_str)));
  ]

let suite =
  unit_tests @ straddle_tests @ json_parse_tests @ events_tests @ reset_conservation_tests
  @ runtime_stats_tests @ json_roundtrip_tests
