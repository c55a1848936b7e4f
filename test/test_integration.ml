(* Whole-system integration tests on the in-process deployment: the real
   protocol end to end (IBE, mixnet, keywheels, Bloom filters). *)

module Curve = Alpenhorn_pairing.Curve
module Keywheel = Alpenhorn_keywheel.Keywheel
module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Pkg = Alpenhorn_pkg.Pkg
module Chain = Alpenhorn_mixnet.Chain
module Events = Alpenhorn_telemetry.Events

let setup ?(config = Config.test) ?backend ~seed emails =
  let d =
    match backend with
    | Some b -> Deployment.of_backend ~config ~seed b
    | None -> Deployment.create ~config ~seed
  in
  let clients =
    List.map (fun email -> Deployment.new_client d ~email ~callbacks:Client.null_callbacks) emails
  in
  List.iter
    (fun c ->
      match Deployment.register d c with
      | Ok () -> ()
      | Error e -> Alcotest.failf "register %s: %s" (Client.email c) (Pkg.error_to_string e))
    clients;
  (d, clients)

let run_af d n = List.init n (fun _ -> Deployment.run_addfriend_round d ())
let run_dial d n = List.init n (fun _ -> Deployment.run_dialing_round d ())

let has_event stats f = List.exists (fun s -> List.exists f s.Deployment.events) stats
let has_call stats f = List.exists (fun s -> List.exists f s.Deployment.calls) stats

let befriend d a b =
  Client.add_friend a ~email:(Client.email b) ();
  let stats = run_af d 2 in
  Alcotest.(check bool)
    (Printf.sprintf "%s befriended %s" (Client.email a) (Client.email b))
    true
    (Client.is_friend a ~email:(Client.email b) && Client.is_friend b ~email:(Client.email a));
  stats

let unit_tests =
  [
    Alcotest.test_case "add-friend handshake completes in two rounds" `Quick (fun () ->
        let d, clients = setup ~seed:"i1" [ "alice@x"; "bob@x"; "carol@x" ] in
        let alice = List.nth clients 0 and bob = List.nth clients 1 and carol = List.nth clients 2 in
        let stats = befriend d alice bob in
        Alcotest.(check bool) "accept event" true
          (has_event stats (function
            | "bob@x", Client.Friend_request_accepted "alice@x" -> true
            | _ -> false));
        Alcotest.(check bool) "confirm event" true
          (has_event stats (function
            | "alice@x", Client.Friend_confirmed "bob@x" -> true
            | _ -> false));
        (* carol was online the whole time and learned nothing *)
        Alcotest.(check (list string)) "carol has no friends" [] (Client.friends carol));
    Alcotest.test_case "keywheels agree after the handshake" `Quick (fun () ->
        let d, clients = setup ~seed:"i2" [ "alice@x"; "bob@x" ] in
        let alice = List.nth clients 0 and bob = List.nth clients 1 in
        let _ = befriend d alice bob in
        let ra = Keywheel.entry_round (Client.keywheel alice) ~email:"bob@x" in
        let rb = Keywheel.entry_round (Client.keywheel bob) ~email:"alice@x" in
        Alcotest.(check (option int)) "same entry round" ra rb;
        (* drive the wheels: alice's outgoing token is what bob scans for *)
        let target = Option.get ra + 3 in
        Keywheel.advance_to (Client.keywheel alice) ~round:target;
        Keywheel.advance_to (Client.keywheel bob) ~round:target;
        let bob_expects =
          Keywheel.expected_tokens (Client.keywheel bob) ~max_intents:1
          |> List.filter_map (fun (peer, _, tok) -> if peer = "alice@x" then Some tok else None)
        in
        (match (Keywheel.dial_token (Client.keywheel alice) ~email:"bob@x" ~intent:0, bob_expects) with
         | Some t1, [ t2 ] -> Alcotest.(check string) "tokens equal" t1 t2
         | _ -> Alcotest.fail "token missing"));
    Alcotest.test_case "call delivers the right intent and matching keys" `Quick (fun () ->
        let d, clients = setup ~seed:"i3" [ "alice@x"; "bob@x" ] in
        let alice = List.nth clients 0 and bob = List.nth clients 1 in
        let _ = befriend d alice bob in
        Client.call alice ~email:"bob@x" ~intent:3;
        let stats = run_dial d 4 in
        let received =
          List.concat_map (fun s -> s.Deployment.calls) stats
          |> List.filter_map (function
               | "bob@x", Client.Incoming_call { peer = "alice@x"; intent; session_key } ->
                 Some (intent, session_key)
               | _ -> None)
        in
        match received with
        | [ (intent, _) ] ->
          Alcotest.(check int) "intent" 3 intent;
          Alcotest.(check (option string)) "session keys agree"
            (Keywheel.session_key (Client.keywheel alice) ~email:"bob@x")
            (Keywheel.session_key (Client.keywheel bob) ~email:"alice@x")
        | [] -> Alcotest.fail "call not delivered"
        | _ -> Alcotest.fail "call delivered more than once");
    Alcotest.test_case "simultaneous add-friend converges" `Quick (fun () ->
        let d, clients = setup ~seed:"i4" [ "alice@x"; "bob@x" ] in
        let alice = List.nth clients 0 and bob = List.nth clients 1 in
        Client.add_friend alice ~email:"bob@x" ();
        Client.add_friend bob ~email:"alice@x" ();
        let _ = run_af d 2 in
        Alcotest.(check bool) "both friends" true
          (Client.is_friend alice ~email:"bob@x" && Client.is_friend bob ~email:"alice@x");
        Alcotest.(check (option int)) "entry rounds agree"
          (Keywheel.entry_round (Client.keywheel alice) ~email:"bob@x")
          (Keywheel.entry_round (Client.keywheel bob) ~email:"alice@x");
        (* and the secrets really are the same: call each other *)
        Client.call alice ~email:"bob@x" ~intent:0;
        let stats = run_dial d 4 in
        Alcotest.(check bool) "call works" true
          (has_call stats (function
            | "bob@x", Client.Incoming_call { peer = "alice@x"; _ } -> true
            | _ -> false)));
    Alcotest.test_case "rejection leaves no keywheel entry on the rejecter" `Quick (fun () ->
        let d = Deployment.create ~config:Config.test ~seed:"i5" in
        let alice = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
        let reject_all =
          { Client.null_callbacks with Client.new_friend = (fun ~email:_ ~key:_ -> false) }
        in
        let bob = Deployment.new_client d ~email:"bob@x" ~callbacks:reject_all in
        (match Deployment.register d alice with Ok () -> () | Error _ -> assert false);
        (match Deployment.register d bob with Ok () -> () | Error _ -> assert false);
        Client.add_friend alice ~email:"bob@x" ();
        let stats = run_af d 2 in
        Alcotest.(check bool) "rejected event" true
          (has_event stats (function
            | "bob@x", Client.Friend_request_rejected "alice@x" -> true
            | _ -> false));
        Alcotest.(check bool) "no friendship" true
          ((not (Client.is_friend bob ~email:"alice@x")) && not (Client.is_friend alice ~email:"bob@x")));
    Alcotest.test_case "multiple friendships across many clients" `Quick (fun () ->
        let emails = List.init 5 (fun i -> Printf.sprintf "user%d@x" i) in
        let d, clients = setup ~seed:"i6" emails in
        let u = Array.of_list clients in
        (* star topology around user0, plus one extra edge *)
        for i = 1 to 4 do
          Client.add_friend u.(0) ~email:(Client.email u.(i)) ()
        done;
        Client.add_friend u.(1) ~email:(Client.email u.(2)) ();
        (* each client sends at most one request per round: give it time *)
        let _ = run_af d 8 in
        for i = 1 to 4 do
          Alcotest.(check bool)
            (Printf.sprintf "user0 <-> user%d" i)
            true
            (Client.is_friend u.(0) ~email:(Client.email u.(i))
            && Client.is_friend u.(i) ~email:(Client.email u.(0)))
        done;
        Alcotest.(check bool) "user1 <-> user2" true
          (Client.is_friend u.(1) ~email:"user2@x" && Client.is_friend u.(2) ~email:"user1@x");
        Alcotest.(check int) "user0 has 4 friends" 4 (List.length (Client.friends u.(0))));
    Alcotest.test_case "calls in both directions at once" `Quick (fun () ->
        let d, clients = setup ~seed:"i7" [ "alice@x"; "bob@x" ] in
        let alice = List.nth clients 0 and bob = List.nth clients 1 in
        let _ = befriend d alice bob in
        Client.call alice ~email:"bob@x" ~intent:1;
        Client.call bob ~email:"alice@x" ~intent:2;
        let stats = run_dial d 4 in
        Alcotest.(check bool) "bob got intent 1" true
          (has_call stats (function
            | "bob@x", Client.Incoming_call { peer = "alice@x"; intent = 1; _ } -> true
            | _ -> false));
        Alcotest.(check bool) "alice got intent 2" true
          (has_call stats (function
            | "alice@x", Client.Incoming_call { peer = "bob@x"; intent = 2; _ } -> true
            | _ -> false)));
    Alcotest.test_case "calling a non-friend delivers nothing" `Quick (fun () ->
        let d, clients = setup ~seed:"i8" [ "alice@x"; "bob@x" ] in
        let alice = List.nth clients 0 in
        Client.call alice ~email:"bob@x" ~intent:0;
        let stats = run_dial d 3 in
        Alcotest.(check bool) "no calls" false (has_call stats (fun _ -> true)));
    Alcotest.test_case "TOFU pins the first key" `Quick (fun () ->
        let d, clients = setup ~seed:"i9" [ "alice@x"; "bob@x" ] in
        let alice = List.nth clients 0 and bob = List.nth clients 1 in
        let _ = befriend d alice bob in
        match Client.pinned_key bob ~email:"alice@x" with
        | None -> Alcotest.fail "no pinned key"
        | Some k ->
          Alcotest.(check bool) "pinned = alice's key" true
            (Curve.equal k (Client.signing_public alice)));
    Alcotest.test_case "out-of-band key mismatch blocks the confirmation" `Quick (fun () ->
        let d, clients = setup ~seed:"i10" [ "alice@x"; "bob@x"; "carol@x" ] in
        let alice = List.nth clients 0 and carol = List.nth clients 2 in
        (* alice expects the WRONG key for bob (she got carol's business card
           mixed up) *)
        Client.add_friend alice ~expected_key:(Client.signing_public carol) ~email:"bob@x" ();
        let stats = run_af d 2 in
        Alcotest.(check bool) "mismatch event" true
          (has_event stats (function
            | "alice@x", Client.Friend_request_key_mismatch "bob@x" -> true
            | _ -> false));
        Alcotest.(check bool) "no friendship for alice" false (Client.is_friend alice ~email:"bob@x"));
    Alcotest.test_case "clients going offline miss nothing fatal" `Quick (fun () ->
        (* bob skips the round where alice's request lands; the request is
           simply gone (mailboxes are per-round), so alice retries *)
        let d, clients = setup ~seed:"i11" [ "alice@x"; "bob@x" ] in
        let alice = List.nth clients 0 and bob = List.nth clients 1 in
        Client.add_friend alice ~email:"bob@x" ();
        let _ = Deployment.run_addfriend_round d ~participants:[ alice ] () in
        Alcotest.(check bool) "not friends yet" false (Client.is_friend alice ~email:"bob@x");
        (* alice queues again; with both online the handshake completes *)
        Client.add_friend alice ~email:"bob@x" ();
        let _ = run_af d 2 in
        Alcotest.(check bool) "friends now" true
          (Client.is_friend alice ~email:"bob@x" && Client.is_friend bob ~email:"alice@x"));
    Alcotest.test_case "round stats are coherent" `Quick (fun () ->
        let d, clients = setup ~seed:"i12" [ "a@x"; "b@x"; "c@x"; "d@x" ] in
        ignore clients;
        let s = Deployment.run_addfriend_round d () in
        Alcotest.(check int) "all four submitted" 4 s.Deployment.requests_in;
        Alcotest.(check bool) "noise added" true (s.Deployment.noise_added > 0);
        (* everyone sent cover traffic: all dropped at the last hop *)
        Alcotest.(check int) "cover dropped" 4 s.Deployment.dropped;
        let ds = Deployment.run_dialing_round d () in
        Alcotest.(check int) "dial submissions" 4 ds.Deployment.tokens_in;
        Alcotest.(check bool) "clock advanced" true (Deployment.now d > 0));
    Alcotest.test_case "client state compromise recovery (§9)" `Quick (fun () ->
        let pkgs, backend = Deployment.local_backend ~config:Config.test ~seed:"i13" in
        let d, clients = setup ~backend ~seed:"i13" [ "alice@x"; "bob@x" ] in
        let alice = List.nth clients 0 and bob = List.nth clients 1 in
        let _ = befriend d alice bob in
        (* alice's machine is compromised: she deregisters everywhere with
           her old key, waits out the lockout, registers a new identity *)
        let sig_ = Client.sign_deregister alice in
        Array.iter
          (fun pkg ->
            match Pkg.deregister pkg ~now:(Deployment.now d) ~email:"alice@x" ~signature:sig_ with
            | Ok () -> ()
            | Error e -> Alcotest.failf "deregister: %s" (Pkg.error_to_string e))
          pkgs;
        Deployment.advance_clock d ~seconds:(31 * 24 * 3600);
        let alice2 = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
        (match Deployment.register d alice2 with
         | Ok () -> ()
         | Error e -> Alcotest.failf "re-register: %s" (Pkg.error_to_string e));
        (* bob still has the old pinned key: the re-add shows a mismatch,
           which surfaces to the application as the paper prescribes *)
        Client.remove_friend bob ~email:"alice@x" (* bob clears the stale entry *);
        Client.add_friend alice2 ~email:"bob@x" ();
        let stats =
          List.init 2 (fun _ ->
              Deployment.run_addfriend_round d ~participants:[ alice2; bob ] ())
        in
        Alcotest.(check bool) "re-friended under new key" true
          (has_event stats (function
            | "alice@x", Client.Friend_confirmed "bob@x" -> true
            | _ -> false)));
  ]


(* §5.1: offline clients catch up from the dialing mailbox archive. *)
let catchup_tests =
  [
    Alcotest.test_case "offline client catches up on an archived call" `Quick (fun () ->
        let d, clients = setup ~seed:"c1" [ "alice@x"; "bob@x" ] in
        let alice = List.nth clients 0 and bob = List.nth clients 1 in
        let _ = befriend d alice bob in
        (* bob goes offline; alice keeps dialing; one round carries her call *)
        Client.call alice ~email:"bob@x" ~intent:1;
        for _ = 1 to 3 do
          ignore (Deployment.run_dialing_round d ~participants:[ alice ] ())
        done;
        Alcotest.(check bool) "bob is behind" true
          (Client.dialing_round bob < Deployment.dialing_round_number d);
        let events = Deployment.catch_up_client d bob in
        Alcotest.(check int) "bob synced" (Deployment.dialing_round_number d)
          (Client.dialing_round bob);
        Alcotest.(check bool) "call recovered" true
          (List.exists
             (function Client.Incoming_call { peer = "alice@x"; intent = 1; _ } -> true | _ -> false)
             events));
    Alcotest.test_case "calls older than the archive retention are lost but the wheel advances"
      `Quick (fun () ->
        (* test config retains 4 rounds *)
        let d, clients = setup ~seed:"c2" [ "alice@x"; "bob@x" ] in
        let alice = List.nth clients 0 and bob = List.nth clients 1 in
        let _ = befriend d alice bob in
        Client.call alice ~email:"bob@x" ~intent:0;
        (* the call goes out in an early round, then 6 more rounds pass:
           the carrying round ages out of the 4-round archive *)
        for _ = 1 to 7 do
          ignore (Deployment.run_dialing_round d ~participants:[ alice ] ())
        done;
        let events = Deployment.catch_up_client d bob in
        Alcotest.(check (list reject)) "call lost" [] events;
        Alcotest.(check int) "wheel advanced anyway (forward secrecy)"
          (Deployment.dialing_round_number d) (Client.dialing_round bob);
        (* the friendship is intact: a fresh call still works *)
        Client.call alice ~email:"bob@x" ~intent:2;
        let stats = run_dial d 2 in
        Alcotest.(check bool) "fresh call delivered" true
          (has_call stats (function
            | "bob@x", Client.Incoming_call { intent = 2; _ } -> true
            | _ -> false)));
    Alcotest.test_case "catch-up on an already-current client is a no-op" `Quick (fun () ->
        let d, clients = setup ~seed:"c3" [ "alice@x"; "bob@x" ] in
        let bob = List.nth clients 1 in
        let _ = run_dial d 2 in
        Alcotest.(check (list reject)) "nothing" [] (Deployment.catch_up_client d bob);
        Alcotest.(check int) "still synced" (Deployment.dialing_round_number d)
          (Client.dialing_round bob));
    Alcotest.test_case "archived_filter honors the retention window" `Quick (fun () ->
        let d, _ = setup ~seed:"c4" [ "alice@x" ] in
        let _ = run_dial d 6 in
        (* test config: 4 rounds retained; round 6 is current *)
        Alcotest.(check bool) "recent round present" true
          (Deployment.archived_filter d ~round:6 ~email:"alice@x" <> None);
        Alcotest.(check bool) "old round erased" true
          (Deployment.archived_filter d ~round:1 ~email:"alice@x" = None));
  ]

let suite = unit_tests @ catchup_tests

(* cross-cutting consistency checks *)
let consistency_tests =
  [
    Alcotest.test_case "deployments are reproducible from the seed" `Quick (fun () ->
        let run () =
          let d, clients = setup ~seed:"determinism" [ "alice@x"; "bob@x"; "carol@x" ] in
          let alice = List.nth clients 0 in
          Client.add_friend alice ~email:"bob@x" ();
          let s1 = Deployment.run_addfriend_round d () in
          let s2 = Deployment.run_dialing_round d () in
          ( s1.Deployment.noise_added,
            s1.Deployment.mailbox_bytes,
            s2.Deployment.dial_noise_added,
            s2.Deployment.filter_bytes,
            List.map fst s1.Deployment.events )
        in
        let a = run () and b = run () in
        Alcotest.(check bool) "identical stats" true (a = b));
    Alcotest.test_case "measured mailbox size matches the cost-model formula" `Quick (fun () ->
        (* the formula that prices Figures 6-10 must agree with what the
           real deployment actually produces at small scale *)
        let config =
          { Config.test with
            Config.addfriend_noise_mu = 6.0;
            active_fraction = 1.0 (* everyone below queues a request *);
            faithful_noise = false (* noise sized, not IBE-encrypted: same bytes *) }
        in
        let d = Deployment.create ~config ~seed:"model-check" in
        let n = 12 in
        let clients =
          List.init n (fun i ->
              Deployment.new_client d ~email:(Printf.sprintf "u%d@x" i)
                ~callbacks:Client.null_callbacks)
        in
        List.iter
          (fun c -> match Deployment.register d c with Ok () -> () | Error _ -> assert false)
          clients;
        List.iteri
          (fun i c -> Client.add_friend c ~email:(Printf.sprintf "u%d@x" ((i + 1) mod n)) ())
          clients;
        let s = Deployment.run_addfriend_round d () in
        let measured = Array.fold_left ( + ) 0 s.Deployment.mailbox_bytes in
        (* expected: every real request plus all noise, priced at the fixed
           request size (b = 0 noise is exact) *)
        let request_bytes = Alpenhorn_core.Wire.request_ciphertext_size (Deployment.params d) in
        let expected = (n + s.Deployment.noise_added) * request_bytes in
        Alcotest.(check int) "bytes agree exactly" expected measured);
  ]

let suite = suite @ consistency_tests

(* ---- one failure path: misbehaving servers and refused clients ---- *)

(* The add-friend chain of the in-process backend, except that its first
   mixer emits every onion twice. *)
let duplicating_chain ~config ~seed =
  let params = Config.params config and rng = Deployment.root_rng ~seed in
  let noise_body mpk_agg = Alpenhorn_core.Wire.noise_body params rng `AddFriend ~mpk_agg in
  let twice = function
    | Chain.Traced b -> Chain.Traced (Array.append b b)
    | Chain.Plain b -> Chain.Plain (Array.append b b)
  in
  Chain.create
    (Array.init config.Config.chain_length (fun position ->
         let hop =
           Chain.local (Deployment.new_mix_server ~config ~seed `AddFriend ~position) ~noise_body
         in
         if position > 0 then hop
         else
           {
             hop with
             Chain.process =
               (fun ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes ~noise ~tracer batch ->
                 Option.map
                   (fun (out, added) -> (twice out, added))
                   (hop.process ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes ~noise ~tracer
                      batch));
           }))

let failure_path_tests =
  [
    Alcotest.test_case "a mixer that duplicates onions does not break a friendship" `Quick
      (fun () ->
        let config = Config.test and seed = "dup" in
        let _, backend = Deployment.local_backend ~config ~seed in
        let af = duplicating_chain ~config ~seed in
        let chain = function `AddFriend -> af | `Dialing -> backend.Deployment.chain `Dialing in
        let backend = { backend with chain } in
        let d, clients = setup ~backend ~seed [ "alice@x"; "bob@x" ] in
        let alice = List.nth clients 0 in
        Client.add_friend alice ~email:"bob@x" ();
        Alcotest.(check (list int)) "events per round" [ 1; 1; 0; 0 ]
          (List.map (fun s -> List.length s.Deployment.events) (run_af d 4));
        Client.call alice ~email:"bob@x" ~intent:0;
        Alcotest.(check bool) "bob rang" true
          (has_call (run_dial d 6) (function
            | "bob@x", Client.Incoming_call { peer = "alice@x"; _ } -> true
            | _ -> false)));
    Alcotest.test_case "a deregistered client sits out; rounds complete and erase their keys"
      `Quick (fun () ->
        let pkgs, backend = Deployment.local_backend ~config:Config.test ~seed:"dereg" in
        let d, clients = setup ~backend ~seed:"dereg" [ "alice@x"; "bob@x"; "carol@x" ] in
        let alice, bob, carol =
          match clients with [ a; b; c ] -> (a, b, c) | _ -> assert false
        in
        Client.add_friend bob ~email:"carol@x" ();
        ignore (Deployment.run_addfriend_round d ());
        let signature = Client.sign_deregister alice in
        Array.iter
          (fun pkg ->
            match Pkg.deregister pkg ~now:(Deployment.now d) ~email:"alice@x" ~signature with
            | Ok () -> ()
            | Error e -> Alcotest.failf "deregister: %s" (Pkg.error_to_string e))
          pkgs;
        Events.clear Events.default;
        let stats = run_af d 2 in
        Alcotest.(check (list int)) "rounds 2 and 3 in one attempt each" [ 1; 1 ]
          (List.map (fun s -> s.Deployment.af_attempts) stats);
        Alcotest.(check bool) "bob befriended carol" true
          (Client.is_friend bob ~email:"carol@x" && Client.is_friend carol ~email:"bob@x");
        Alcotest.(check (list string)) "alice sat out both rounds" [ "alice@x"; "alice@x" ]
          (List.filter_map
             (fun (e : Events.event) ->
               if e.name = "client.extract_failed" then Some (List.assoc "client" e.labels)
               else None)
             (Events.to_list Events.default));
        (* every round's master secret is gone, at every PKG *)
        List.iter
          (fun round ->
            match
              Client.begin_addfriend_round_with bob ~round ~n_pkgs:(Array.length pkgs)
                ~extract:(fun j -> Pkg.extract pkgs.(j) ~now:(Deployment.now d) ~round)
            with
            | Error Pkg.Wrong_round -> ()
            | Ok _ -> Alcotest.failf "round %d's master secret survived" round
            | Error e -> Alcotest.failf "round %d: %s" round (Pkg.error_to_string e))
          [ 1; 2; 3 ]);
  ]

let suite = suite @ failure_path_tests

(* §5.1 again: a client left out of [?participants] replays the archive by
   itself when it rejoins, as a client offline under a fault schedule does. *)
let rejoin_tests =
  [
    Alcotest.test_case "a client left out of the participants recovers its call on rejoining"
      `Quick (fun () ->
        let d, clients = setup ~seed:"probe-catchup" [ "alice@x"; "bob@x" ] in
        let alice = List.nth clients 0 and bob = List.nth clients 1 in
        let _ = befriend d alice bob in
        ignore (run_dial d 4);
        Client.call alice ~email:"bob@x" ~intent:1;
        for _ = 1 to 2 do
          ignore (Deployment.run_dialing_round d ~participants:[ alice ] ())
        done;
        let stats = Deployment.run_dialing_round d () in
        Alcotest.(check int) "bob's calls from alice" 1
          (List.length
             (List.filter
                (function
                  | "bob@x", Client.Incoming_call { peer = "alice@x"; intent = 1; _ } -> true
                  | _ -> false)
                stats.Deployment.calls));
        Alcotest.(check int) "bob synced" (Deployment.dialing_round_number d)
          (Client.dialing_round bob));
  ]

let suite = suite @ rejoin_tests
