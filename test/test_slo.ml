(* SLO / health engine: rule evaluation, skip semantics for absent
   metrics, the built-in rule set, and the report exporters. *)

module Tel = Alpenhorn_telemetry.Telemetry
module Slo = Alpenhorn_telemetry.Slo
module Costmodel = Alpenhorn_sim.Costmodel
module Round_sim = Alpenhorn_sim.Round_sim

let params = lazy (Alpenhorn_pairing.Params.test ())

let check_named report name =
  match
    List.find_opt (fun (c : Slo.check) -> c.rule.Slo.name = name) report.Slo.checks
  with
  | Some c -> c
  | None -> Alcotest.failf "no check named %s in report" name

let deadline_rule limit =
  Slo.rule ~name:"af.deadline" ~description:"add-friend round under deadline"
    (Slo.Span_max "round.addfriend") Slo.Le limit

let basic_tests =
  [
    Alcotest.test_case "deadline rule passes, then fails on an injected miss" `Quick (fun () ->
        let r = Tel.create () in
        Tel.Span.emit r ~name:"round.addfriend" ~ts:0.0 ~dur:200.0 ();
        let snap = Tel.Snapshot.take r in
        let ok = Slo.evaluate [ deadline_rule 300.0 ] snap in
        Alcotest.(check bool) "within deadline: healthy" true ok.Slo.healthy;
        let miss = Slo.evaluate [ deadline_rule 100.0 ] snap in
        Alcotest.(check bool) "deadline miss: unhealthy" false miss.Slo.healthy;
        let c = check_named miss "af.deadline" in
        Alcotest.(check bool) "the failing check is the deadline" false c.Slo.pass;
        Alcotest.(check (option (float 1e-9))) "observed worst span" (Some 200.0) c.Slo.value);
    Alcotest.test_case "absent metrics are skipped, not failed" `Quick (fun () ->
        let snap = Tel.Snapshot.take (Tel.create ()) in
        let report = Slo.evaluate [ deadline_rule 0.0 ] snap in
        Alcotest.(check bool) "empty snapshot is healthy" true report.Slo.healthy;
        let c = check_named report "af.deadline" in
        Alcotest.(check (option (float 1e-9))) "skipped check has no value" None c.Slo.value;
        Alcotest.(check bool) "skipped check passes" true c.Slo.pass);
    Alcotest.test_case "hit-rate source" `Quick (fun () ->
        let r = Tel.create () in
        Tel.Counter.add (Tel.Counter.v r "c.hits") 9;
        Tel.Counter.add (Tel.Counter.v r "c.misses") 1;
        let snap = Tel.Snapshot.take r in
        Alcotest.(check (option (float 1e-9))) "9/10" (Some 0.9)
          (Slo.value_of snap (Slo.Hit_rate ("c.hits", "c.misses")));
        let floor th =
          Slo.rule ~name:"hr" ~description:"" (Slo.Hit_rate ("c.hits", "c.misses")) Slo.Ge th
        in
        Alcotest.(check bool) "above floor" true (Slo.evaluate [ floor 0.8 ] snap).Slo.healthy;
        Alcotest.(check bool) "below floor" false (Slo.evaluate [ floor 0.95 ] snap).Slo.healthy;
        Alcotest.(check (option (float 1e-9))) "no observations = absent" None
          (Slo.value_of snap (Slo.Hit_rate ("c.nope", "c.nada"))));
  ]

let default_rules_tests =
  [
    Alcotest.test_case "always-armed drop rule trips on undecryptable onions" `Quick (fun () ->
        let r = Tel.create () in
        Tel.Counter.add (Tel.Counter.v r ~labels:[ ("server", "1") ] "mix.onions_dropped") 3;
        let snap = Tel.Snapshot.take r in
        let report = Slo.evaluate (Slo.default_rules ()) snap in
        Alcotest.(check bool) "unhealthy" false report.Slo.healthy;
        Alcotest.(check bool) "mix.drops is the failure" false
          (check_named report "mix.drops").Slo.pass);
    Alcotest.test_case "simulated round: healthy under a generous deadline, not a tight one"
      `Quick (fun () ->
        ignore (Tel.Snapshot.take ~reset:true Tel.default);
        let pc = Costmodel.protocol_costs (Lazy.force params) in
        ignore
          (Round_sim.addfriend Costmodel.paper_machine pc ~n_users:100_000 ~n_servers:3
             ~noise_mu:4000.0 ~active_fraction:0.05 ~chunks:1);
        let snap = Tel.Snapshot.take Tel.default in
        let healthy =
          Slo.evaluate (Slo.default_rules ~addfriend_deadline:86_400.0 ()) snap
        in
        Alcotest.(check bool) "a day is plenty" true healthy.Slo.healthy;
        let strained =
          Slo.evaluate (Slo.default_rules ~addfriend_deadline:0.001 ()) snap
        in
        Alcotest.(check bool) "a millisecond is not" false strained.Slo.healthy;
        (* quiescence rule is armed and evaluated, not skipped *)
        let q = check_named healthy "sim.quiescent" in
        Alcotest.(check bool) "quiescence checked and passing" true
          (q.Slo.value <> None && q.Slo.pass));
  ]

let exporter_tests =
  [
    Alcotest.test_case "pp_report and report_to_json" `Quick (fun () ->
        let r = Tel.create () in
        Tel.Span.emit r ~name:"round.addfriend" ~ts:0.0 ~dur:200.0 ();
        let snap = Tel.Snapshot.take r in
        let report =
          Slo.evaluate (deadline_rule 100.0 :: Slo.default_rules ()) snap
        in
        let text = Format.asprintf "%a" Slo.pp_report report in
        let has needle =
          let nh = String.length text and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "report names the failure" true (has "FAIL");
        Alcotest.(check bool) "report marks skipped rules" true (has "skip");
        let json = Slo.report_to_json report in
        Alcotest.(check bool) "report JSON is valid" true (Tel.Json.is_valid json);
        match Tel.Json.parse json with
        | Some doc ->
          Alcotest.(check (option bool)) "healthy field serialized" (Some false)
            (match Tel.Json.member "healthy" doc with
            | Some (Tel.Json.Bool b) -> Some b
            | _ -> None)
        | None -> Alcotest.fail "unparseable report JSON");
    Alcotest.test_case "report_to_json reads back every number" `Quick (fun () ->
        let r = Tel.create () in
        Tel.Gauge.set (Tel.Gauge.v r "ratio") (0.1 +. 0.2);
        let rule threshold =
          Slo.rule ~name:"ratio" ~description:"ratio \"bounded\"\n" (Slo.Gauge "ratio") Slo.Le threshold
        in
        let report =
          Slo.evaluate
            [
              rule Float.infinity;
              rule 1.234567890123;
              Slo.rule ~name:"absent" ~description:"" (Slo.Gauge "nope") Slo.Ge 0.0;
            ]
            (Tel.Snapshot.take r)
        in
        let doc = Option.get (Tel.Json.parse (Slo.report_to_json report)) in
        let checks = Option.get (Tel.Json.get "checks" (Tel.Json.to_list Option.some) doc) in
        Alcotest.(check int) "one object per check" 3 (List.length checks);
        (* JSON has no infinity: a non-finite number prints as null and
           reads back as nan *)
        let printed v = if Float.is_finite v then v else Float.nan in
        List.iter2
          (fun (c : Slo.check) j ->
            let num k = Tel.Json.get k Tel.Json.to_num j in
            Alcotest.(check (option int64)) "threshold"
              (Some (Int64.bits_of_float (printed c.rule.Slo.threshold)))
              (Option.map Int64.bits_of_float (num "threshold"));
            Alcotest.(check (option int64)) "value"
              (Option.map Int64.bits_of_float c.value)
              (match Tel.Json.member "value" j with
              | Some Tel.Json.Null -> None
              | _ -> Option.map Int64.bits_of_float (num "value"));
            Alcotest.(check (option string)) "description" (Some c.rule.Slo.description)
              (Tel.Json.get "description" Tel.Json.to_str j))
          report.Slo.checks checks);
  ]

let suite = basic_tests @ default_rules_tests @ exporter_tests
