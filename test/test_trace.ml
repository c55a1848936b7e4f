(* Per-message causal tracing: sampler determinism, label round-trip,
   stitched traces across the sim and the real pipeline, the wire
   byte-identity privacy invariant, and the DES queue-depth gauges. *)

module Tel = Alpenhorn_telemetry.Telemetry
module Trace = Alpenhorn_telemetry.Trace
module Drbg = Alpenhorn_crypto.Drbg
module Onion = Alpenhorn_mixnet.Onion
module Payload = Alpenhorn_mixnet.Payload
module Mailbox = Alpenhorn_mixnet.Mailbox
module Chain = Alpenhorn_mixnet.Chain
module Costmodel = Alpenhorn_sim.Costmodel
module Round_sim = Alpenhorn_sim.Round_sim
module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment

let params = lazy (Alpenhorn_pairing.Params.test ())

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let gauge snap name = List.fold_left Float.max neg_infinity (Tel.Snapshot.gauges snap name)

(* Follow parent pointers from the root: the causal chain of one trace. *)
let causal_chain spans =
  let root =
    match List.find_opt (fun ((c : Trace.ctx), _) -> c.parent = None) spans with
    | Some r -> r
    | None -> Alcotest.fail "trace has no root span"
  in
  let rec walk ((c : Trace.ctx), (sp : Tel.Snapshot.span)) acc =
    let acc = (sp.name, sp) :: acc in
    match
      List.find_opt (fun ((c' : Trace.ctx), _) -> c'.parent = Some c.span_id) spans
    with
    | None -> List.rev acc
    | Some next -> walk next acc
  in
  walk root []

let run_sim_round tracer =
  ignore (Tel.Snapshot.take ~reset:true Tel.default);
  let pr = Lazy.force params in
  let pc = Costmodel.protocol_costs pr in
  ignore
    (Round_sim.addfriend Costmodel.paper_machine ?tracer pc ~n_users:100_000 ~n_servers:3
       ~noise_mu:4000.0 ~active_fraction:0.05 ~chunks:1);
  Tel.Snapshot.take Tel.default

let sampler_tests =
  [
    Alcotest.test_case "sampling is deterministic and respects the rate" `Quick (fun () ->
        let r = Tel.create () in
        let decisions tr = List.init 200 (fun _ -> Trace.sample tr <> None) in
        let a = decisions (Trace.create ~rate:0.5 ~seed:42 r) in
        let b = decisions (Trace.create ~rate:0.5 ~seed:42 r) in
        Alcotest.(check (list bool)) "same seed, same decisions" a b;
        let hits = List.length (List.filter Fun.id a) in
        Alcotest.(check bool) "rate 0.5 samples roughly half" true (hits > 50 && hits < 150);
        let all = decisions (Trace.create ~rate:1.0 r) in
        Alcotest.(check bool) "rate 1 samples everything" true (List.for_all Fun.id all);
        let none = decisions (Trace.create ~rate:0.0 r) in
        Alcotest.(check bool) "rate 0 samples nothing" true (not (List.exists Fun.id none));
        Alcotest.(check bool) "rate outside [0,1] rejected" true
          (try
             ignore (Trace.create ~rate:1.5 r);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "contexts round-trip through span labels" `Quick (fun () ->
        let r = Tel.create () in
        let tr = Trace.create r in
        let root = Option.get (Trace.sample tr) in
        let kid = Trace.child tr root in
        List.iter
          (fun ctx ->
            Alcotest.(check bool) "round-trip" true
              (Trace.ctx_of_labels (Trace.labels_of ctx) = Some ctx))
          [ root; kid ];
        Alcotest.(check bool) "child keeps the trace id" true
          (kid.Trace.trace_id = root.Trace.trace_id);
        Alcotest.(check bool) "child parents to the root span" true
          (kid.Trace.parent = Some root.Trace.span_id);
        Alcotest.(check (option unit)) "plain labels are not a context" None
          (Option.map ignore (Trace.ctx_of_labels [ ("server", "1") ])));
  ]

let sim_tests =
  [
    Alcotest.test_case "round_sim emits one stitched multi-hop trace" `Quick (fun () ->
        let tr = Trace.create ~rate:1.0 ~seed:7 Tel.default in
        let snap = run_sim_round (Some tr) in
        (match Trace.traces snap with
        | [ (_, spans) ] ->
          let chain = causal_chain spans in
          Alcotest.(check (list string)) "client -> 3 hops -> mailbox -> scan"
            [ "client.submit"; "mix.hop"; "mix.hop"; "mix.hop"; "mailbox.publish"; "client.scan" ]
            (List.map fst chain);
          Alcotest.(check int) "chain covers every span of the trace" (List.length spans)
            (List.length chain);
          (* hops visit servers 0,1,2 in order, at non-decreasing times *)
          let hops = List.filter (fun (n, _) -> n = "mix.hop") chain in
          List.iteri
            (fun i (_, (sp : Tel.Snapshot.span)) ->
              Alcotest.(check (option string))
                (Printf.sprintf "hop %d server label" i)
                (Some (string_of_int i))
                (List.assoc_opt "server" sp.labels))
            hops;
          let times = List.map (fun (_, (sp : Tel.Snapshot.span)) -> sp.ts) chain in
          Alcotest.(check bool) "timestamps non-decreasing along the chain" true
            (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < 5) times) (List.tl times));
          List.iter
            (fun (_, (sp : Tel.Snapshot.span)) ->
              Alcotest.(check string) "simulated clock" "sim" sp.clock)
            chain
        | ts -> Alcotest.failf "expected exactly one trace, got %d" (List.length ts));
        (* the Chrome exporter carries the trace labels through *)
        let chrome = Tel.Snapshot.to_chrome_trace snap in
        Alcotest.(check bool) "chrome trace is valid JSON" true (Tel.Json.is_valid chrome);
        Alcotest.(check bool) "chrome trace carries trace labels" true
          (contains chrome "\"trace\"");
        ignore (Format.asprintf "%a" Trace.pp_timelines snap));
    Alcotest.test_case "queue-depth gauges: busy mid-round, quiescent after" `Quick (fun () ->
        let snap = run_sim_round None in
        Alcotest.(check bool) "des queue was non-empty mid-round" true
          (gauge snap "sim.des_pending_max" >= 1.0);
        Alcotest.(check (float 1e-9)) "des queue drained at quiescence" 0.0
          (gauge snap "sim.des_pending");
        Alcotest.(check bool) "mailbox load recorded" true (gauge snap "mailbox.max_load" > 0.0));
  ]

(* One chain round, same DRBG seeds, with and without tracing: every wire
   artifact (submitted onions, mailbox contents) must be byte-identical —
   trace contexts ride out-of-band only (DESIGN.md §9). *)
let chain_round tracer =
  ignore (Tel.Snapshot.take ~reset:true Tel.default);
  let pr = Lazy.force params in
  let rng = Drbg.create ~seed:"wire-identity" in
  let chain = Test_mixnet.local_chain pr ~rng:(Drbg.derive rng "chain") 3 in
  let server_pks = Chain.begin_round chain in
  let crng = Drbg.derive rng "clients" in
  let onions =
    Array.init 4 (fun i ->
        Onion.wrap pr crng ~server_pks
          (Payload.encode ~mailbox:(i mod 3) (Printf.sprintf "body-%04d" i)))
  in
  let ctx0 = Option.bind tracer Trace.sample in
  (* the client normally emits the root span at submission time *)
  (match (tracer, ctx0) with
  | Some tr, Some c ->
    Trace.emit tr c ~labels:[ ("client", "alice") ] ~name:"client.submit"
      ~ts:(Tel.now Tel.default) ~dur:0.0 ()
  | _ -> ());
  let batch = Array.mapi (fun i o -> (o, if i = 0 then ctx0 else None)) onions in
  let nrng = Drbg.derive rng "noise" in
  let final, noise, published =
    Chain.mix chain ~noise_mu:2.0 ~laplace_b:0.5 ~num_mailboxes:3
      ~noise:(fun ~mailbox:_ -> Drbg.bytes nrng 24)
      ?tracer batch
  in
  let mailboxes, dropped = Mailbox.distribute ~num_mailboxes:3 ~mode:`AddFriend final in
  (onions, Mailbox.plain_exn mailboxes, (noise, dropped), published)

let wire_tests =
  [
    Alcotest.test_case "wire formats are byte-identical with tracing on or off" `Quick (fun () ->
        let onions_off, boxes_off, stats_off, published_off = chain_round None in
        let tr = Trace.create ~rate:1.0 Tel.default in
        let onions_on, boxes_on, stats_on, published_on = chain_round (Some tr) in
        Alcotest.(check bool) "submitted onions identical" true (onions_off = onions_on);
        Alcotest.(check int) "same mailbox count" (Array.length boxes_off) (Array.length boxes_on);
        Array.iteri
          (fun i entries ->
            Alcotest.(check (list string))
              (Printf.sprintf "mailbox %d entries byte-identical" i)
              entries boxes_on.(i))
          boxes_off;
        Alcotest.(check bool) "chain stats identical" true (stats_off = stats_on);
        (* and the traced run really did trace: the sampled message's hops
           and publish landed in the registry, parented into one chain *)
        Alcotest.(check (list int)) "untraced run published no contexts" []
          (List.map fst published_off);
        (match published_on with
        | [ (mb, _) ] -> Alcotest.(check int) "traced payload landed in its mailbox" 0 mb
        | l -> Alcotest.failf "expected one traced publish, got %d" (List.length l));
        let snap = Tel.Snapshot.take Tel.default in
        match Trace.traces snap with
        | [ (_, spans) ] ->
          Alcotest.(check (list string)) "submit, hops, then publish"
            [ "client.submit"; "mix.hop"; "mix.hop"; "mix.hop"; "mailbox.publish" ]
            (List.map (fun (_, s) -> s.Tel.Snapshot.name) (causal_chain spans))
        | ts -> Alcotest.failf "expected one trace, got %d" (List.length ts));
  ]

(* Full deployment, same seed, traced vs untraced: identical round results
   (the client path is also perturbation-free), and the traced run stitches
   a scan span onto the published trace. *)
let deployment_round tracer =
  ignore (Tel.Snapshot.take ~reset:true Tel.default);
  let d = Deployment.create ~config:Config.test ~seed:"dep-wire" in
  let a = Deployment.new_client d ~email:"alice@example.org" ~callbacks:Client.null_callbacks in
  let b = Deployment.new_client d ~email:"bob@example.org" ~callbacks:Client.null_callbacks in
  List.iter
    (fun c ->
      match Deployment.register d c with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Alpenhorn_pkg.Pkg.error_to_string e))
    [ a; b ];
  Client.add_friend a ~email:"bob@example.org" ();
  Deployment.set_tracer d tracer;
  let s1 = Deployment.run_addfriend_round d () in
  let s2 = Deployment.run_addfriend_round d () in
  (s1, s2)

let deployment_tests =
  [
    Alcotest.test_case "deployment rounds are unperturbed by tracing" `Quick (fun () ->
        let off1, off2 = deployment_round None in
        let tr = Trace.create ~rate:1.0 Tel.default in
        let on1, on2 = deployment_round (Some tr) in
        Alcotest.(check bool) "round 1 stats identical" true (off1 = on1);
        Alcotest.(check bool) "round 2 stats identical" true (off2 = on2);
        Alcotest.(check bool) "friendship actually established" true
          (List.exists
             (function _, Client.Friend_confirmed _ -> true | _ -> false)
             off2.Deployment.events);
        (* the traced run produced at least one full client->scan chain *)
        let snap = Tel.Snapshot.take Tel.default in
        let chains =
          List.map (fun (_, spans) -> List.map fst (causal_chain spans)) (Trace.traces snap)
        in
        Alcotest.(check bool) "a stitched submit->hops->publish->scan trace exists" true
          (List.exists
             (fun names ->
               names
               = [
                   "client.submit"; "mix.hop"; "mix.hop"; "mix.hop"; "mailbox.publish";
                   "client.scan";
                 ])
             chains));
  ]

let suite = sampler_tests @ sim_tests @ wire_tests @ deployment_tests
