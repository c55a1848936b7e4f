(* Boneh-Franklin FullIdent and Anytrust-IBE. *)

module B = Alpenhorn_bigint.Bigint
module Curve = Alpenhorn_pairing.Curve
module Params = Alpenhorn_pairing.Params
module Ibe = Alpenhorn_ibe.Ibe
module Drbg = Alpenhorn_crypto.Drbg

let params = lazy (Params.test ())
let p () = Lazy.force params
let rng () = Drbg.create ~seed:"ibe-tests"

let unit_tests =
  [
    Alcotest.test_case "encrypt/decrypt roundtrip" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let msk, mpk = Ibe.setup pr rng in
        let d = Ibe.extract pr msk "alice@example.org" in
        let msg = "hello alice, this is a friend request" in
        let ctxt = Ibe.encrypt pr rng mpk ~id:"alice@example.org" msg in
        Alcotest.(check (option string)) "roundtrip" (Some msg) (Ibe.decrypt pr d ctxt));
    Alcotest.test_case "wrong identity cannot decrypt" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let msk, mpk = Ibe.setup pr rng in
        let d_bob = Ibe.extract pr msk "bob@example.org" in
        let ctxt = Ibe.encrypt pr rng mpk ~id:"alice@example.org" "secret" in
        Alcotest.(check (option string)) "bob fails" None (Ibe.decrypt pr d_bob ctxt));
    Alcotest.test_case "wrong master key cannot decrypt" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let _, mpk1 = Ibe.setup pr rng in
        let msk2, _ = Ibe.setup pr rng in
        let d = Ibe.extract pr msk2 "alice@example.org" in
        let ctxt = Ibe.encrypt pr rng mpk1 ~id:"alice@example.org" "secret" in
        Alcotest.(check (option string)) "other PKG fails" None (Ibe.decrypt pr d ctxt));
    Alcotest.test_case "tampered ciphertext rejected (FO check)" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let msk, mpk = Ibe.setup pr rng in
        let d = Ibe.extract pr msk "alice@example.org" in
        let ctxt = Ibe.encrypt pr rng mpk ~id:"alice@example.org" "secret message" in
        (* flip one bit anywhere: every position must cause rejection *)
        List.iter
          (fun pos ->
            let b = Bytes.of_string ctxt in
            Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
            Alcotest.(check (option string))
              (Printf.sprintf "flip at %d" pos)
              None
              (Ibe.decrypt pr d (Bytes.to_string b)))
          [ 0; String.length ctxt / 2; String.length ctxt - 1 ]);
    Alcotest.test_case "malformed ciphertexts rejected" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let msk, _ = Ibe.setup pr rng in
        let d = Ibe.extract pr msk "alice@example.org" in
        Alcotest.(check (option string)) "empty" None (Ibe.decrypt pr d "");
        Alcotest.(check (option string)) "short" None (Ibe.decrypt pr d "abc");
        Alcotest.(check (option string)) "garbage" None
          (Ibe.decrypt pr d (String.make (Ibe.ciphertext_overhead pr + 10) '\xAB')));
    Alcotest.test_case "ciphertext size is plaintext + overhead" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let _, mpk = Ibe.setup pr rng in
        List.iter
          (fun n ->
            let ctxt = Ibe.encrypt pr rng mpk ~id:"x@y" (String.make n 'm') in
            Alcotest.(check int)
              (Printf.sprintf "len %d" n)
              (n + Ibe.ciphertext_overhead pr)
              (String.length ctxt))
          [ 0; 1; 100; 500 ]);
    Alcotest.test_case "anytrust: all PKG keys decrypt, subsets do not" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let pkgs = List.init 3 (fun _ -> Ibe.setup pr rng) in
        let mpk_agg = Ibe.aggregate_public pr (List.map snd pkgs) in
        let keys = List.map (fun (msk, _) -> Ibe.extract pr msk "alice@example.org") pkgs in
        let d_all = Ibe.aggregate_identity pr keys in
        let ctxt = Ibe.encrypt pr rng mpk_agg ~id:"alice@example.org" "anytrust secret" in
        Alcotest.(check (option string)) "all three" (Some "anytrust secret")
          (Ibe.decrypt pr d_all ctxt);
        (* any proper subset of identity keys fails: the missing honest PKG
           protects the ciphertext *)
        List.iteri
          (fun i _ ->
            let subset = List.filteri (fun j _ -> j <> i) keys in
            let d_sub = Ibe.aggregate_identity pr subset in
            Alcotest.(check (option string))
              (Printf.sprintf "without pkg %d" i)
              None (Ibe.decrypt pr d_sub ctxt))
          keys);
    Alcotest.test_case "anytrust ciphertext size independent of PKG count" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let sizes =
          List.map
            (fun n ->
              let pkgs = List.init n (fun _ -> Ibe.setup pr rng) in
              let mpk = Ibe.aggregate_public pr (List.map snd pkgs) in
              String.length (Ibe.encrypt pr rng mpk ~id:"a@b" "constant message"))
            [ 1; 3; 10 ]
        in
        match sizes with
        | [ a; b; c ] ->
          Alcotest.(check int) "1 vs 3" a b;
          Alcotest.(check int) "3 vs 10" b c
        | _ -> assert false);
    Alcotest.test_case "master public key serialization" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let _, mpk = Ibe.setup pr rng in
        Alcotest.(check bool) "roundtrip" true
          (match Ibe.master_public_of_bytes pr (Ibe.master_public_bytes pr mpk) with
           | Some m -> Curve.equal m mpk
           | None -> false));
    Alcotest.test_case "prepared key decrypts exactly as the key" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let msk, mpk = Ibe.setup pr rng in
        let d = Ibe.extract pr msk "alice@example.org" in
        let mine = Ibe.encrypt pr rng mpk ~id:"alice@example.org" "for alice" in
        let tampered = Bytes.of_string mine in
        Bytes.set tampered 3 (Char.chr (Char.code (Bytes.get tampered 3) lxor 1));
        let mailbox =
          [
            mine;
            Ibe.encrypt pr rng mpk ~id:"bob@example.org" "for bob";
            Bytes.to_string tampered;
            "";
            String.make (Ibe.ciphertext_overhead pr + 10) '\xAB';
            Ibe.encrypt pr rng mpk ~id:"alice@example.org" "";
          ]
        in
        let prepared =
          Ibe.with_prepared_key pr d (fun key -> List.map (Ibe.decrypt_prepared pr key) mailbox)
        in
        Alcotest.(check (list (option string))) "same results" (List.map (Ibe.decrypt pr d) mailbox)
          prepared;
        Alcotest.(check (option string)) "only its own" (Some "for alice") (List.hd prepared);
        Alcotest.(check (list (option string))) "infinity decrypts nothing"
          (List.map (fun _ -> None) mailbox)
          (Ibe.with_prepared_key pr Curve.Inf (fun key ->
               List.map (Ibe.decrypt_prepared pr key) mailbox)));
    Alcotest.test_case "distinct randomness yields distinct ciphertexts" `Quick (fun () ->
        let pr = p () and rng = rng () in
        let _, mpk = Ibe.setup pr rng in
        let c1 = Ibe.encrypt pr rng mpk ~id:"a@b" "same message" in
        let c2 = Ibe.encrypt pr rng mpk ~id:"a@b" "same message" in
        Alcotest.(check bool) "probabilistic encryption" false (c1 = c2));
  ]

let prop name ?(count = 10) arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let property_tests =
  [
    prop "roundtrip for arbitrary messages and identities"
      QCheck.(pair small_string small_string)
      (fun (id, msg) ->
        let pr = p () in
        let rng = Drbg.create ~seed:("prop" ^ id ^ msg) in
        let msk, mpk = Ibe.setup pr rng in
        let d = Ibe.extract pr msk id in
        Ibe.decrypt pr d (Ibe.encrypt pr rng mpk ~id msg) = Some msg);
    prop "ciphertext anonymity: decryption is the only distinguisher" QCheck.(int_range 0 1000)
      (fun seed ->
        (* both ciphertexts have identical length and successfully decrypt
           only under their own identity *)
        let pr = p () in
        let rng = Drbg.create ~seed:(string_of_int seed) in
        let msk, mpk = Ibe.setup pr rng in
        let ca = Ibe.encrypt pr rng mpk ~id:"alice@x" "m" in
        let cb = Ibe.encrypt pr rng mpk ~id:"bob@x" "m" in
        let da = Ibe.extract pr msk "alice@x" in
        String.length ca = String.length cb
        && Ibe.decrypt pr da ca = Some "m"
        && Ibe.decrypt pr da cb = None);
  ]

let suite = unit_tests @ property_tests
