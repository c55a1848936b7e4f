(* BLS signatures and same-message multisignatures. *)

module B = Alpenhorn_bigint.Bigint
module Curve = Alpenhorn_pairing.Curve
module Params = Alpenhorn_pairing.Params
module Bls = Alpenhorn_bls.Bls
module Ibe = Alpenhorn_ibe.Ibe
module Field = Alpenhorn_pairing.Field
module Drbg = Alpenhorn_crypto.Drbg

let params = lazy (Params.test ())
let p () = Lazy.force params
let rng () = Drbg.create ~seed:"bls-tests"

let unit_tests =
  [
    Alcotest.test_case "sign/verify" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let sk, pk = Bls.keygen pr rng in
        let s = Bls.sign pr sk "the message" in
        Alcotest.(check bool) "valid" true (Bls.verify pr pk "the message" s);
        Alcotest.(check bool) "wrong message" false (Bls.verify pr pk "another message" s));
    Alcotest.test_case "wrong key rejects" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let sk, _ = Bls.keygen pr rng in
        let _, pk2 = Bls.keygen pr rng in
        let s = Bls.sign pr sk "msg" in
        Alcotest.(check bool) "other key" false (Bls.verify pr pk2 "msg" s));
    Alcotest.test_case "deterministic signatures" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let sk, _ = Bls.keygen pr rng in
        Alcotest.(check bool) "same" true
          (Curve.equal (Bls.sign pr sk "m") (Bls.sign pr sk "m")));
    Alcotest.test_case "infinity is never valid" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let _, pk = Bls.keygen pr rng in
        Alcotest.(check bool) "inf sig" false (Bls.verify pr pk "m" Curve.infinity);
        Alcotest.(check bool) "inf key" false (Bls.verify pr Curve.infinity "m" (Bls.sign pr B.one "m")));
    Alcotest.test_case "multisignature verifies with all signers" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let signers = List.init 5 (fun _ -> Bls.keygen pr rng) in
        let msg = "attest: alice@example.org round 7" in
        let agg = Bls.aggregate pr (List.map (fun (sk, _) -> Bls.sign pr sk msg) signers) in
        let pks = List.map snd signers in
        Alcotest.(check bool) "multi ok" true (Bls.verify_multi pr pks msg agg));
    Alcotest.test_case "multisignature missing one signer fails" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let signers = List.init 3 (fun _ -> Bls.keygen pr rng) in
        let msg = "binding" in
        let sigs = List.map (fun (sk, _) -> Bls.sign pr sk msg) signers in
        let partial = Bls.aggregate pr (List.tl sigs) in
        Alcotest.(check bool) "partial aggregate" false
          (Bls.verify_multi pr (List.map snd signers) msg partial));
    Alcotest.test_case "multisignature over different messages fails" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let (sk1, pk1) = Bls.keygen pr rng and (sk2, pk2) = Bls.keygen pr rng in
        let agg = Bls.aggregate pr [ Bls.sign pr sk1 "m1"; Bls.sign pr sk2 "m2" ] in
        Alcotest.(check bool) "mixed messages" false (Bls.verify_multi pr [ pk1; pk2 ] "m1" agg));
    Alcotest.test_case "serialization roundtrips" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let sk, pk = Bls.keygen pr rng in
        let s = Bls.sign pr sk "ser" in
        Alcotest.(check bool) "pk" true
          (match Bls.public_of_bytes pr (Bls.public_bytes pr pk) with
           | Some p2 -> Curve.equal p2 pk
           | None -> false);
        Alcotest.(check bool) "sig" true
          (match Bls.signature_of_bytes pr (Bls.signature_bytes pr s) with
           | Some s2 -> Curve.equal s2 s
           | None -> false));
  ]

(* A point of small order added to a public key leaves every signature
   under it verifying (the pairing's second argument is taken modulo
   q·E, which holds the point), so only the decoder's subgroup check keeps
   keys and signatures unique: every BLS and IBE point decoder rejects a
   point outside G1. *)
let decode_tests =
  [
    Alcotest.test_case "a signature plus a point of order 2 is rejected at decode" `Quick (fun () ->
        List.iter
          (fun pr ->
            let fp = pr.Params.fp in
            let sk, pk = Bls.keygen pr (rng ()) in
            let s = Bls.sign pr sk "m" in
            let t = Curve.make fp ~x:(Field.neg fp B.one) ~y:B.zero in
            let forged = Curve.add fp s t in
            Alcotest.(check bool) "a key plus the point still verifies" true
              (Bls.verify pr (Curve.add fp pk t) "m" s);
            let rejected name decode bytes = Alcotest.(check bool) name true (decode pr bytes = None) in
            rejected "signature" Bls.signature_of_bytes (Bls.signature_bytes pr forged);
            rejected "public key" Bls.public_of_bytes (Bls.public_bytes pr (Curve.add fp pk t));
            rejected "master public key" Ibe.master_public_of_bytes (Curve.to_bytes fp (Curve.add fp pk t));
            rejected "identity key" Ibe.identity_key_of_bytes (Curve.to_bytes fp forged);
            rejected "the order-2 point itself" Bls.signature_of_bytes (Curve.to_bytes fp t);
            Alcotest.(check bool) "the signature decodes" true
              (Option.map (Curve.equal s) (Bls.signature_of_bytes pr (Bls.signature_bytes pr s)) = Some true);
            Alcotest.(check bool) "infinity decodes" true
              (Option.map Curve.is_infinity (Bls.public_of_bytes pr (Curve.to_bytes fp Curve.infinity))
              = Some true))
          [ p (); Params.production () ]);
  ]

(* batch verification: the product-of-pairings fast path must agree with
   one-by-one verification, and a single forgery anywhere must sink the
   whole batch (small-exponent soundness). *)
let batch_of pr n ~seed =
  Array.init n (fun i ->
      let sk, pk = Bls.keygen pr (Drbg.create ~seed:(Printf.sprintf "%s-%d" seed i)) in
      let m = Printf.sprintf "batch message %d" i in
      (pk, m, Bls.sign pr sk m))

let batch_tests =
  [
    Alcotest.test_case "verify_batch agrees with verify on valid batches" `Quick (fun () ->
        let pr = p () in
        List.iter
          (fun n ->
            let items = batch_of pr n ~seed:"vb-ok" in
            Alcotest.(check bool)
              (Printf.sprintf "all-valid batch of %d" n)
              true (Bls.verify_batch pr items))
          [ 0; 1; 2; 5; 16 ]);
    Alcotest.test_case "singleton batch equals plain verify" `Quick (fun () ->
        let pr = p () in
        let sk, pk = Bls.keygen pr (rng ()) in
        let good = Bls.sign pr sk "solo" in
        Alcotest.(check bool) "valid" true (Bls.verify_batch pr [| (pk, "solo", good) |]);
        Alcotest.(check bool) "invalid" false (Bls.verify_batch pr [| (pk, "other", good) |]));
    Alcotest.test_case "one forgery anywhere rejects the batch" `Quick (fun () ->
        let pr = p () in
        let n = 8 in
        for bad = 0 to n - 1 do
          let items = batch_of pr n ~seed:"vb-forge" in
          let pk, m, _ = items.(bad) in
          let forger, _ = Bls.keygen pr (Drbg.create ~seed:"vb-forger") in
          items.(bad) <- (pk, m, Bls.sign pr forger m);
          Alcotest.(check bool)
            (Printf.sprintf "forgery at %d" bad)
            false (Bls.verify_batch pr items)
        done);
    Alcotest.test_case "swapped signatures reject even though both verify alone" `Quick
      (fun () ->
        (* a_i mismatched to m_j: every individual signature is genuine, but
           under the wrong message slot — the batch must notice *)
        let pr = p () in
        let items = batch_of pr 4 ~seed:"vb-swap" in
        let pk0, m0, s0 = items.(0) and pk1, m1, s1 = items.(1) in
        items.(0) <- (pk0, m0, s1);
        items.(1) <- (pk1, m1, s0);
        Alcotest.(check bool) "swapped" false (Bls.verify_batch pr items));
    Alcotest.test_case "infinity key or signature rejects the batch" `Quick (fun () ->
        let pr = p () in
        let items = batch_of pr 3 ~seed:"vb-inf" in
        let with_inf_sig = Array.copy items in
        let pk, m, _ = with_inf_sig.(1) in
        with_inf_sig.(1) <- (pk, m, Curve.infinity);
        Alcotest.(check bool) "inf sig" false (Bls.verify_batch pr with_inf_sig);
        let with_inf_pk = Array.copy items in
        let _, m, s = with_inf_pk.(2) in
        with_inf_pk.(2) <- (Curve.infinity, m, s);
        Alcotest.(check bool) "inf key" false (Bls.verify_batch pr with_inf_pk));
  ]

let prop name ?(count = 15) arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let property_tests =
  [
    prop "any signed message verifies" QCheck.small_string (fun msg ->
        let pr = p () in
        let rng = Drbg.create ~seed:("p1" ^ msg) in
        let sk, pk = Bls.keygen pr rng in
        Bls.verify pr pk msg (Bls.sign pr sk msg));
    prop "signature on m never verifies m'" QCheck.(pair small_string small_string)
      (fun (m1, m2) ->
        QCheck.assume (m1 <> m2);
        let pr = p () in
        let rng = Drbg.create ~seed:("p2" ^ m1 ^ m2) in
        let sk, pk = Bls.keygen pr rng in
        not (Bls.verify pr pk m2 (Bls.sign pr sk m1)));
    prop "aggregation order is irrelevant" QCheck.(int_range 0 1000) (fun seed ->
        let pr = p () in
        let rng = Drbg.create ~seed:(string_of_int seed) in
        let signers = List.init 4 (fun _ -> Bls.keygen pr rng) in
        let sigs = List.map (fun (sk, _) -> Bls.sign pr sk "order") signers in
        Curve.equal (Bls.aggregate pr sigs) (Bls.aggregate pr (List.rev sigs)));
  ]

let suite = unit_tests @ decode_tests @ batch_tests @ property_tests
