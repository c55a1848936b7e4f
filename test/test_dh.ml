(* Diffie-Hellman over G1. *)

module Curve = Alpenhorn_pairing.Curve
module Params = Alpenhorn_pairing.Params
module Dh = Alpenhorn_dh.Dh
module Drbg = Alpenhorn_crypto.Drbg

let params = lazy (Params.test ())
let p () = Lazy.force params

let unit_tests =
  [
    Alcotest.test_case "both sides derive the same secret" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"dh1" in
        let ska, pka = Dh.keygen pr rng in
        let skb, pkb = Dh.keygen pr rng in
        Alcotest.(check string) "agree" (Dh.shared_secret pr ska pkb) (Dh.shared_secret pr skb pka));
    Alcotest.test_case "secret is 32 bytes" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"dh2" in
        let ska, _ = Dh.keygen pr rng in
        let _, pkb = Dh.keygen pr rng in
        Alcotest.(check int) "len" 32 (String.length (Dh.shared_secret pr ska pkb)));
    Alcotest.test_case "different peers different secrets" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"dh3" in
        let ska, _ = Dh.keygen pr rng in
        let _, pkb = Dh.keygen pr rng in
        let _, pkc = Dh.keygen pr rng in
        Alcotest.(check bool) "differ" false
          (Dh.shared_secret pr ska pkb = Dh.shared_secret pr ska pkc));
    Alcotest.test_case "rejects the point at infinity" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"dh4" in
        let ska, _ = Dh.keygen pr rng in
        Alcotest.check_raises "infinity" (Invalid_argument "Dh.shared_secret: infinity") (fun () ->
            ignore (Dh.shared_secret pr ska Curve.infinity));
        (* the wire decoder also refuses an infinity encoding *)
        let inf_bytes = Curve.to_bytes pr.Params.fp Curve.infinity in
        Alcotest.(check bool) "of_bytes inf" true (Dh.public_of_bytes pr inf_bytes = None));
    Alcotest.test_case "public key bytes roundtrip" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"dh5" in
        let _, pk = Dh.keygen pr rng in
        Alcotest.(check bool) "roundtrip" true
          (match Dh.public_of_bytes pr (Dh.public_bytes pr pk) with
           | Some p2 -> Curve.equal p2 pk
           | None -> false);
        Alcotest.(check int) "size" (Dh.public_size pr) (String.length (Dh.public_bytes pr pk)));
  ]

let prop name ?(count = 20) arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let property_tests =
  [
    prop "agreement for arbitrary keypairs" QCheck.(int_range 0 100_000) (fun seed ->
        let pr = p () in
        let rng = Drbg.create ~seed:(string_of_int seed) in
        let ska, pka = Dh.keygen pr rng in
        let skb, pkb = Dh.keygen pr rng in
        Dh.shared_secret pr ska pkb = Dh.shared_secret pr skb pka);
  ]

let suite = unit_tests @ property_tests
