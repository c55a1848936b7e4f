(* Robustness: every decoder in the system must reject (never crash on)
   arbitrary bytes — mailbox scanning feeds untrusted input to most of
   them — and deployment variants exercise less-traveled configuration
   paths. *)

module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve
module Ibe = Alpenhorn_ibe.Ibe
module Bls = Alpenhorn_bls.Bls
module Dh = Alpenhorn_dh.Dh
module Bloom = Alpenhorn_bloom.Bloom
module Onion = Alpenhorn_mixnet.Onion
module Payload = Alpenhorn_mixnet.Payload
module Ratelimit = Alpenhorn_mixnet.Ratelimit
module Wire = Alpenhorn_core.Wire
module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Persist = Alpenhorn_core.Persist
module Drbg = Alpenhorn_crypto.Drbg

let params = lazy (Params.test ())
let p () = Lazy.force params

(* feed a decoder random strings of assorted lengths; success = no exception
   (None/failure results are fine) *)
let fuzz name decode =
  Alcotest.test_case ("fuzz " ^ name) `Quick (fun () ->
      let rng = Drbg.create ~seed:("fuzz-" ^ name) in
      List.iter
        (fun len ->
          for _ = 1 to 20 do
            decode (Drbg.bytes rng len)
          done)
        [ 0; 1; 7; 31; 32; 63; 64; 100; 256; 1000 ])

let fuzz_tests =
  let pr = p () in
  let msk, _ = Ibe.setup pr (Drbg.create ~seed:"fuzz-setup") in
  let d_id = Ibe.extract pr msk "fuzz@x" in
  let dh_sk, _ = Dh.keygen pr (Drbg.create ~seed:"fuzz-dh") in
  [
    fuzz "curve point" (fun s -> ignore (Curve.of_bytes pr.Params.fp s));
    fuzz "ibe ciphertext" (fun s ->
        (* the scan's batch must agree with decrypt then decode *)
        let decode = Wire.decode_request pr in
        let expected = Option.bind (Ibe.decrypt pr d_id s) (fun m -> Option.map (fun _ -> m) (decode m)) in
        let got = Ibe.with_prepared_key pr d_id (fun k -> Ibe.decrypt_batch pr k ~decode [ s ]) in
        if List.map (Option.map fst) got <> [ expected ] then Alcotest.fail "batch differs from decrypt");
    fuzz "onion" (fun s -> ignore (Onion.unwrap pr ~sk:dh_sk s));
    fuzz "payload" (fun s -> ignore (Payload.decode s));
    fuzz "bloom filter" (fun s -> ignore (Bloom.of_bytes s));
    fuzz "friend request" (fun s -> ignore (Wire.decode_request pr s));
    fuzz "ratelimit token" (fun s -> ignore (Ratelimit.token_of_bytes pr s));
    fuzz "backup blob" (fun s -> ignore (Persist.import_identity pr ~passphrase:"x" s));
    fuzz "bls public" (fun s -> ignore (Bls.public_of_bytes pr s));
  ]

let config_tests =
  [
    Alcotest.test_case "deployment with cheap (non-IBE) noise still delivers" `Quick (fun () ->
        let config = { Config.test with Config.faithful_noise = false } in
        let d = Deployment.create ~config ~seed:"cheap-noise" in
        let alice = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
        let bob = Deployment.new_client d ~email:"bob@x" ~callbacks:Client.null_callbacks in
        (match Deployment.register d alice with Ok () -> () | Error _ -> assert false);
        (match Deployment.register d bob with Ok () -> () | Error _ -> assert false);
        Client.add_friend alice ~email:"bob@x" ();
        ignore (Deployment.run_addfriend_round d ());
        ignore (Deployment.run_addfriend_round d ());
        Alcotest.(check bool) "friends" true (Client.is_friend bob ~email:"alice@x"));
    Alcotest.test_case "single mixnet server and single PKG still work" `Quick (fun () ->
        let config = { Config.test with Config.chain_length = 1; n_pkgs = 1 } in
        let d = Deployment.create ~config ~seed:"minimal" in
        let alice = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
        let bob = Deployment.new_client d ~email:"bob@x" ~callbacks:Client.null_callbacks in
        (match Deployment.register d alice with Ok () -> () | Error _ -> assert false);
        (match Deployment.register d bob with Ok () -> () | Error _ -> assert false);
        Client.add_friend alice ~email:"bob@x" ();
        ignore (Deployment.run_addfriend_round d ());
        ignore (Deployment.run_addfriend_round d ());
        Client.call alice ~email:"bob@x" ~intent:0;
        let delivered = ref false in
        for _ = 1 to 4 do
          let s = Deployment.run_dialing_round d () in
          if s.Deployment.calls <> [] then delivered := true
        done;
        Alcotest.(check bool) "call delivered" true !delivered);
    Alcotest.test_case "five-server chain works end to end" `Quick (fun () ->
        let config = { Config.test with Config.chain_length = 5 } in
        let d = Deployment.create ~config ~seed:"five" in
        let alice = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
        let bob = Deployment.new_client d ~email:"bob@x" ~callbacks:Client.null_callbacks in
        (match Deployment.register d alice with Ok () -> () | Error _ -> assert false);
        (match Deployment.register d bob with Ok () -> () | Error _ -> assert false);
        Client.add_friend alice ~email:"bob@x" ();
        ignore (Deployment.run_addfriend_round d ());
        ignore (Deployment.run_addfriend_round d ());
        Alcotest.(check bool) "friends" true (Client.is_friend bob ~email:"alice@x"));
    Alcotest.test_case "nonzero Laplace b produces noise and still delivers" `Quick (fun () ->
        let config =
          { Config.test with Config.laplace_b = 1.5; addfriend_noise_mu = 4.0 }
        in
        let d = Deployment.create ~config ~seed:"laplace" in
        let alice = Deployment.new_client d ~email:"alice@x" ~callbacks:Client.null_callbacks in
        let bob = Deployment.new_client d ~email:"bob@x" ~callbacks:Client.null_callbacks in
        (match Deployment.register d alice with Ok () -> () | Error _ -> assert false);
        (match Deployment.register d bob with Ok () -> () | Error _ -> assert false);
        Client.add_friend alice ~email:"bob@x" ();
        let s1 = Deployment.run_addfriend_round d () in
        ignore (Deployment.run_addfriend_round d ());
        Alcotest.(check bool) "noise sampled" true (s1.Deployment.noise_added >= 0);
        Alcotest.(check bool) "friends" true (Client.is_friend bob ~email:"alice@x"));
    Alcotest.test_case "config validation rejects bad settings" `Quick (fun () ->
        let bad field config = (field, Config.validate config) in
        List.iter
          (fun (field, result) ->
            Alcotest.(check bool) field true (Result.is_error result))
          [
            bad "n_pkgs" { Config.test with Config.n_pkgs = 0 };
            bad "chain" { Config.test with Config.chain_length = 0 };
            bad "noise" { Config.test with Config.addfriend_noise_mu = -1.0 };
            bad "intents" { Config.test with Config.max_intents = 0 };
            bad "active" { Config.test with Config.active_fraction = 0.0 };
            bad "round secs" { Config.test with Config.dialing_round_seconds = 0 };
            bad "archive" { Config.test with Config.dial_archive_rounds = -1 };
            bad "params" { Config.test with Config.param_name = "bogus" };
          ];
        Alcotest.(check bool) "good config passes" true (Result.is_ok (Config.validate Config.test)));
  ]

let suite = fuzz_tests @ config_tests
