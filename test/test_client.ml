(* Client-side unit tests: wire format, request verification, submission
   uniformity. Full protocol flows live in test_integration.ml. *)

module B = Alpenhorn_bigint.Bigint
module Curve = Alpenhorn_pairing.Curve
module Params = Alpenhorn_pairing.Params
module Bls = Alpenhorn_bls.Bls
module Dh = Alpenhorn_dh.Dh
module Drbg = Alpenhorn_crypto.Drbg
module Config = Alpenhorn_core.Config
module Wire = Alpenhorn_core.Wire
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Pkg = Alpenhorn_pkg.Pkg

let params = lazy (Params.test ())
let p () = Lazy.force params

let sample_request seed =
  let pr = p () in
  let rng = Drbg.create ~seed in
  let sk, pk = Bls.keygen pr rng in
  let _, dh_pk = Dh.keygen pr rng in
  let skeleton =
    {
      Wire.sender_email = "alice@example.org";
      sender_key = pk;
      sender_sig = Curve.infinity;
      pkg_sigs = Curve.infinity;
      dialing_key = dh_pk;
      dialing_round = 42;
    }
  in
  (sk, { skeleton with Wire.sender_sig = Bls.sign pr sk (Wire.sender_sig_message pr skeleton) })

let unit_tests =
  [
    Alcotest.test_case "wire roundtrip (Fig 3)" `Quick (fun () ->
        let pr = p () in
        let _, req = sample_request "w1" in
        (* pkg_sigs must be a decodable point: use a real signature *)
        let rng = Drbg.create ~seed:"w1b" in
        let sk2, _ = Bls.keygen pr rng in
        let req = { req with Wire.pkg_sigs = Bls.sign pr sk2 "att" } in
        match Wire.decode_request pr (Wire.encode_request pr req) with
        | None -> Alcotest.fail "decode failed"
        | Some got ->
          Alcotest.(check string) "email" req.Wire.sender_email got.Wire.sender_email;
          Alcotest.(check int) "round" req.Wire.dialing_round got.Wire.dialing_round;
          Alcotest.(check bool) "key" true (Curve.equal req.Wire.sender_key got.Wire.sender_key);
          Alcotest.(check bool) "sig" true (Curve.equal req.Wire.sender_sig got.Wire.sender_sig);
          Alcotest.(check bool) "dh" true (Curve.equal req.Wire.dialing_key got.Wire.dialing_key));
    Alcotest.test_case "requests are fixed size regardless of email length" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"w2" in
        let sk2, _ = Bls.keygen pr rng in
        let _, base = sample_request "w2a" in
        let base = { base with Wire.pkg_sigs = Bls.sign pr sk2 "a" } in
        let short = { base with Wire.sender_email = "a@b" } in
        let long = { base with Wire.sender_email = String.make 60 'x' ^ "@y.z" } in
        Alcotest.(check int) "same size"
          (String.length (Wire.encode_request pr short))
          (String.length (Wire.encode_request pr long));
        Alcotest.(check int) "declared size" (Wire.request_plaintext_size pr)
          (String.length (Wire.encode_request pr short)));
    Alcotest.test_case "oversized email rejected" `Quick (fun () ->
        let pr = p () in
        let _, req = sample_request "w3" in
        let req = { req with Wire.sender_email = String.make 100 'e' } in
        Alcotest.check_raises "too long" (Invalid_argument "Wire.encode_request: email too long")
          (fun () -> ignore (Wire.encode_request pr req)));
    Alcotest.test_case "decode rejects wrong-size and corrupt input" `Quick (fun () ->
        let pr = p () in
        Alcotest.(check bool) "empty" true (Wire.decode_request pr "" = None);
        Alcotest.(check bool) "short" true (Wire.decode_request pr "abc" = None);
        Alcotest.(check bool) "garbage of right size" true
          (Wire.decode_request pr (String.make (Wire.request_plaintext_size pr) '\xee') = None));
    Alcotest.test_case "client basics: queues, friends, self-friend" `Quick (fun () ->
        let d = Deployment.create ~config:Config.test ~seed:"client-basics" in
        let c = Deployment.new_client d ~email:"me@x" ~callbacks:Client.null_callbacks in
        Alcotest.(check string) "email" "me@x" (Client.email c);
        Alcotest.check_raises "self" (Invalid_argument "Client.add_friend: cannot friend yourself")
          (fun () -> Client.add_friend c ~email:"me@x" ());
        Client.add_friend c ~email:"you@x" ();
        Client.add_friend c ~email:"you@x" () (* duplicate is a no-op *);
        Alcotest.(check int) "one pending" 1 (Client.pending_add_friends c);
        Alcotest.(check bool) "not a friend yet" false (Client.is_friend c ~email:"you@x");
        Alcotest.check_raises "intent out of range" (Invalid_argument "Client.call: intent")
          (fun () -> Client.call c ~email:"you@x" ~intent:99));
    Alcotest.test_case "verify_request detects forged PKG attestations" `Quick (fun () ->
        let d = Deployment.create ~config:Config.test ~seed:"client-verify" in
        let alice = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
        let bob = Deployment.new_client d ~email:"bob@x" ~callbacks:Client.null_callbacks in
        (match Deployment.register d alice with Ok () -> () | Error _ -> assert false);
        (match Deployment.register d bob with Ok () -> () | Error _ -> assert false);
        (* run a real round so alice obtains genuine PKG attestation material;
           capture bob's view by hand-building a request *)
        Client.add_friend alice ~email:"bob@x" ();
        let stats = Deployment.run_addfriend_round d () in
        Alcotest.(check bool) "bob accepted" true
          (List.exists
             (function _, Client.Friend_request_accepted _ -> true | _ -> false)
             stats.Deployment.events);
        (* a self-signed request without PKG attestation must fail ok1 *)
        let pr = Deployment.params d in
        let rng = Drbg.create ~seed:"forger" in
        let fsk, fpk = Bls.keygen pr rng in
        let _, dh_pk = Dh.keygen pr rng in
        let skeleton =
          {
            Wire.sender_email = "mallory@x";
            sender_key = fpk;
            sender_sig = Curve.infinity;
            pkg_sigs = Bls.sign pr fsk "not an attestation";
            dialing_key = dh_pk;
            dialing_round = 3;
          }
        in
        let forged =
          { skeleton with Wire.sender_sig = Bls.sign pr fsk (Wire.sender_sig_message pr skeleton) }
        in
        (match Client.verify_request bob ~round:2 forged with
         | Error `Bad_pkg_sigs -> ()
         | Ok () -> Alcotest.fail "forged attestation accepted"
         | Error `Bad_sender_sig -> Alcotest.fail "wrong error"));
    Alcotest.test_case "submissions are uniform: cover vs real same length" `Quick (fun () ->
        let pkgs, backend = Deployment.local_backend ~config:Config.test ~seed:"uniform" in
        let d = Deployment.of_backend ~config:Config.test ~seed:"uniform" backend in
        let alice = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
        let bob = Deployment.new_client d ~email:"bob@x" ~callbacks:Client.null_callbacks in
        (match Deployment.register d alice with Ok () -> () | Error _ -> assert false);
        (match Deployment.register d bob with Ok () -> () | Error _ -> assert false);
        (* alice has a queued request, bob sends cover: capture both onions *)
        Client.add_friend alice ~email:"bob@x" ();
        let round = 1 in
        let commitments = Array.map (fun pkg -> Pkg.begin_round pkg ~round) pkgs in
        ignore commitments;
        Array.iter (fun pkg -> ignore (Pkg.reveal_round pkg ~round)) pkgs;
        let mpks =
          Array.to_list pkgs |> List.map (fun pkg -> Option.get (Pkg.master_public pkg ~round))
        in
        let mpk_agg = Alpenhorn_ibe.Ibe.aggregate_public (Deployment.params d) mpks in
        let rng = Drbg.create ~seed:"uniform-keys" in
        let server_pks = [ snd (Dh.keygen (Deployment.params d) rng) ] in
        let extract i = Pkg.extract pkgs.(i) ~now:0 ~round in
        let ctx c =
          match Client.begin_addfriend_round_with c ~round ~n_pkgs:(Array.length pkgs) ~extract with
          | Ok ctx -> ctx
          | Error e -> Alcotest.failf "begin: %s" (Pkg.error_to_string e)
        in
        let real =
          Client.addfriend_submission alice (ctx alice) ~mpk_agg ~num_mailboxes:2 ~server_pks
        in
        let cover =
          Client.addfriend_submission bob (ctx bob) ~mpk_agg ~num_mailboxes:2 ~server_pks
        in
        Alcotest.(check int) "same size" (String.length real) (String.length cover));
    Alcotest.test_case "dialing submissions are uniform too" `Quick (fun () ->
        let d = Deployment.create ~config:Config.test ~seed:"uniform-dial" in
        let alice = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
        let rng = Drbg.create ~seed:"uniform-dial-keys" in
        let server_pks = [ snd (Dh.keygen (Deployment.params d) rng) ] in
        (* no friends: cover traffic *)
        let cover = Client.dialing_submission alice ~num_mailboxes:1 ~server_pks in
        (* with a live friend and a queued call: real token *)
        Alpenhorn_keywheel.Keywheel.add_friend (Client.keywheel alice) ~email:"bob@x"
          ~secret:(String.make 32 's') ~round:0;
        Client.call alice ~email:"bob@x" ~intent:0;
        let real = Client.dialing_submission alice ~num_mailboxes:1 ~server_pks in
        Alcotest.(check int) "same size" (String.length cover) (String.length real));
    Alcotest.test_case "sender_sig binds the dialing key (MITM swap rejected)" `Quick (fun () ->
        let pkgs, backend = Deployment.local_backend ~config:Config.test ~seed:"client-swap" in
        let d = Deployment.of_backend ~config:Config.test ~seed:"client-swap" backend in
        let pr = Deployment.params d in
        let bob = Deployment.new_client d ~email:"bob@x" ~callbacks:Client.null_callbacks in
        (* register a raw keypair for mallory directly with the PKGs so the
           request carries genuine attestations — swapping the DH half must
           then fail on the sender signature, not on PKGSigs *)
        let rng = Drbg.create ~seed:"client-swap-keys" in
        let msk, mpk = Bls.keygen pr rng in
        let email = "mallory@x" in
        let now = Deployment.now d in
        Array.iter
          (fun pkg ->
            match Pkg.register pkg ~now ~email ~pk:mpk with
            | Ok () -> ()
            | Error e -> Alcotest.failf "register: %s" (Pkg.error_to_string e))
          pkgs;
        Array.iteri
          (fun i (p : Deployment.pkg) ->
            List.iter
              (fun token ->
                match Pkg.confirm pkgs.(i) ~now ~email ~token with
                | Ok () -> ()
                | Error e -> Alcotest.failf "confirm: %s" (Pkg.error_to_string e))
              (p.inbox ~email))
          backend.Deployment.pkgs;
        let round = 1 in
        Array.iter (fun pkg -> ignore (Pkg.begin_round pkg ~round)) pkgs;
        Array.iter
          (fun pkg ->
            match Pkg.reveal_round pkg ~round with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "reveal: %s" (Pkg.error_to_string e))
          pkgs;
        let ext_sig = Bls.sign pr msk (Pkg.extraction_request_message ~email ~round) in
        let atts =
          Array.to_list pkgs
          |> List.map (fun pkg ->
                 match Pkg.extract pkg ~now ~round ~email ~signature:ext_sig with
                 | Ok (_, att) -> att
                 | Error e -> Alcotest.failf "extract: %s" (Pkg.error_to_string e))
        in
        let _, dh_pk = Dh.keygen pr rng in
        let skeleton =
          {
            Wire.sender_email = email;
            sender_key = mpk;
            sender_sig = Curve.infinity;
            pkg_sigs = Bls.aggregate pr atts;
            dialing_key = dh_pk;
            dialing_round = 7;
          }
        in
        let req =
          { skeleton with Wire.sender_sig = Bls.sign pr msk (Wire.sender_sig_message pr skeleton) }
        in
        (match Client.verify_request bob ~round req with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "genuine request rejected");
        (* an in-path attacker re-wraps the request around their own DH key *)
        let _, evil_dh = Dh.keygen pr (Drbg.create ~seed:"client-swap-evil") in
        let swapped = { req with Wire.dialing_key = evil_dh } in
        match Client.verify_request bob ~round swapped with
        | Error `Bad_sender_sig -> ()
        | Ok () -> Alcotest.fail "swapped dialing key accepted (MITM)"
        | Error `Bad_pkg_sigs -> Alcotest.fail "wrong error: PKGSigs must still verify");
    Alcotest.test_case "decode_request rejects nonzero email padding" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"pad" in
        let sk2, _ = Bls.keygen pr rng in
        let _, req = sample_request "pad-req" in
        let req = { req with Wire.pkg_sigs = Bls.sign pr sk2 "att"; sender_email = "a@b" } in
        let enc = Wire.encode_request pr req in
        Alcotest.(check bool) "canonical form decodes" true (Wire.decode_request pr enc <> None);
        (* byte 0 is the email length; bytes 1+len .. max_email_length are
           padding and must be all-zero — anything else is a covert channel *)
        let len = Char.code enc.[0] in
        Alcotest.(check int) "email length" 3 len;
        let tweaked = Bytes.of_string enc in
        Bytes.set tweaked (1 + len) 'Z';
        Alcotest.(check bool) "nonzero padding rejected" true
          (Wire.decode_request pr (Bytes.to_string tweaked) = None));
    Alcotest.test_case "remove_friend erases all traces" `Quick (fun () ->
        let d = Deployment.create ~config:Config.test ~seed:"remove" in
        let c = Deployment.new_client d ~email:"me@x" ~callbacks:Client.null_callbacks in
        Alpenhorn_keywheel.Keywheel.add_friend (Client.keywheel c) ~email:"bob@x"
          ~secret:(String.make 32 's') ~round:0;
        Alcotest.(check bool) "friend" true (Client.is_friend c ~email:"bob@x");
        Client.remove_friend c ~email:"bob@x";
        Alcotest.(check bool) "gone" false (Client.is_friend c ~email:"bob@x");
        Alcotest.(check (option reject)) "no pinned key" None (Client.pinned_key c ~email:"bob@x"));
  ]

(* One add-friend round by hand over the in-process PKGs, with no mixnet:
   alice's submission wrapped for no server is the bare payload, and its body
   the IBE ciphertext a mixnet would deliver to bob's mailbox. *)
let hand_round ?(pr = p ()) pkgs ~round alice bob =
  Array.iter (fun pkg -> ignore (Pkg.begin_round pkg ~round)) pkgs;
  let mpks =
    Array.to_list pkgs
    |> List.map (fun pkg ->
           match Pkg.reveal_round pkg ~round with
           | Ok (mpk, _) -> mpk
           | Error e -> Alcotest.failf "reveal: %s" (Pkg.error_to_string e))
  in
  let mpk_agg = Alpenhorn_ibe.Ibe.aggregate_public pr mpks in
  let ctx c =
    match
      Client.begin_addfriend_round_with c ~round ~n_pkgs:(Array.length pkgs)
        ~extract:(fun i -> Pkg.extract pkgs.(i) ~now:0 ~round)
    with
    | Ok ctx -> ctx
    | Error e -> Alcotest.failf "begin: %s" (Pkg.error_to_string e)
  in
  let submission =
    Client.addfriend_submission alice (ctx alice) ~mpk_agg ~num_mailboxes:1 ~server_pks:[]
  in
  (snd (Option.get (Alpenhorn_mixnet.Payload.decode submission)), ctx bob, mpk_agg)

let two_clients ?(config = Config.test) seed =
  let pkgs, backend = Deployment.local_backend ~config ~seed in
  let d = Deployment.of_backend ~config ~seed backend in
  let client email =
    let c = Deployment.new_client d ~email ~callbacks:Client.null_callbacks in
    (match Deployment.register d c with
    | Ok () -> ()
    | Error e -> Alcotest.failf "register: %s" (Pkg.error_to_string e));
    c
  in
  let alice = client "alice@x" in
  (pkgs, alice, client "bob@x")

let scan_tests =
  [
    Alcotest.test_case "a ciphertext twice in one mailbox is one request" `Quick (fun () ->
        let pkgs, alice, bob = two_clients "scan-dup" in
        Client.add_friend alice ~email:"bob@x" ();
        let ctxt, bob_ctx, _ = hand_round pkgs ~round:1 alice bob in
        let events = Client.scan_addfriend_mailbox bob bob_ctx [ ctxt; ctxt ] in
        Alcotest.(check int) "one event" 1 (List.length events);
        Alcotest.(check bool) "bob accepted alice" true
          (events = [ Client.Friend_request_accepted "alice@x" ]);
        Alcotest.(check int) "one confirmation queued" 1 (Client.pending_add_friends bob));
    Alcotest.test_case "a ciphertext replayed into the next round is no request" `Quick
      (fun () ->
        let pkgs, alice, bob = two_clients "scan-replay" in
        Client.add_friend alice ~email:"bob@x" ();
        let ctxt, _, _ = hand_round pkgs ~round:1 alice bob in
        let _, bob_ctx, _ = hand_round pkgs ~round:2 alice bob in
        Alcotest.(check int) "no event" 0
          (List.length (Client.scan_addfriend_mailbox bob bob_ctx [ ctxt ]));
        Alcotest.(check int) "nothing queued" 0 (Client.pending_add_friends bob));
  ]

(* Montgomery multiplications ("pairing.mont_mul") of one scan of an
   18-ciphertext mailbox, 17 misses and 1 hit: the key's preparation, 18
   batched trial decryptions, and the hit's decryption check and
   processing, whose request decodes three points checked to lie in G1
   (837 multiplications each on the test curve, 2 612 on the production
   curve). Per-ciphertext decryption with a Fujisaki-Okamoto check on
   every plaintext exceeds these budgets (on the production curve,
   6 895 + 18 × 4 629 before the hit's checks). *)
let work_tests =
  [
    Alcotest.test_case "a scan stays within its multiplication budget" `Quick (fun () ->
        let muls = Alpenhorn_telemetry.Telemetry.(Counter.v default "pairing.mont_mul") in
        List.iter
          (fun (param_name, budget) ->
            let config = { Config.test with Config.param_name } in
            let pr = Config.params config in
            let pkgs, alice, bob = two_clients ~config ("scan-work-" ^ param_name) in
            Client.add_friend alice ~email:"bob@x" ();
            let ctxt, bob_ctx, mpk_agg = hand_round ~pr pkgs ~round:1 alice bob in
            let rng = Drbg.create ~seed:"scan-work" in
            let misses =
              List.init 17 (fun i ->
                  Alpenhorn_ibe.Ibe.encrypt pr rng mpk_agg ~id:(Printf.sprintf "other%d@x" i)
                    (Drbg.bytes rng (Wire.request_plaintext_size pr)))
            in
            let m0 = Alpenhorn_telemetry.Telemetry.Counter.value muls in
            let events = Client.scan_addfriend_mailbox bob bob_ctx (misses @ [ ctxt ]) in
            let m = Alpenhorn_telemetry.Telemetry.Counter.value muls - m0 in
            Alcotest.(check bool) "bob accepted alice" true
              (events = [ Client.Friend_request_accepted "alice@x" ]);
            if m > budget then
              Alcotest.failf "%s scan runs %d multiplications (at most %d)" param_name m budget)
          [ ("test", 30_800); ("production", 91_000) ]);
  ]

let suite = unit_tests @ scan_tests @ work_tests
