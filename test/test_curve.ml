(* Group laws and serialization for the supersingular curve. *)

module B = Alpenhorn_bigint.Bigint
module Curve = Alpenhorn_pairing.Curve
module Field = Alpenhorn_pairing.Field
module Params = Alpenhorn_pairing.Params
module Pairing = Alpenhorn_pairing.Pairing
module Drbg = Alpenhorn_crypto.Drbg

let params = lazy (Params.test ())
let p () = Lazy.force params
let fp () = (p ()).Params.fp

(* random G1 elements as scalar multiples of the generator *)
let gen_point =
  QCheck.Gen.map
    (fun seed ->
      let pr = p () in
      let rng = Drbg.create ~seed:(string_of_int seed) in
      Curve.mul pr.Params.fp (Drbg.bigint_below rng pr.Params.q) pr.Params.g)
    QCheck.Gen.(int_range 0 1_000_000)

let print_point pt =
  match pt with
  | Curve.Inf -> "Inf"
  | Curve.Affine { x; y } -> Printf.sprintf "(%s, %s)" (B.to_hex x) (B.to_hex y)

let arb_point = QCheck.make ~print:print_point gen_point

let unit_tests =
  [
    Alcotest.test_case "generator on curve with order q" `Quick (fun () ->
        let pr = p () in
        Alcotest.(check bool) "on curve" true (Curve.is_on_curve pr.Params.fp pr.Params.g);
        Alcotest.(check bool) "q*g = O" true
          (Curve.equal (Curve.mul pr.Params.fp pr.Params.q pr.Params.g) Curve.Inf);
        Alcotest.(check bool) "g <> O" false (Curve.equal pr.Params.g Curve.Inf));
    Alcotest.test_case "identity laws" `Quick (fun () ->
        let pr = p () in
        let g = pr.Params.g and f = pr.Params.fp in
        Alcotest.(check bool) "g + O = g" true (Curve.equal (Curve.add f g Curve.Inf) g);
        Alcotest.(check bool) "O + g = g" true (Curve.equal (Curve.add f Curve.Inf g) g);
        Alcotest.(check bool) "g + (-g) = O" true (Curve.equal (Curve.add f g (Curve.neg f g)) Curve.Inf);
        Alcotest.(check bool) "0*g = O" true (Curve.equal (Curve.mul f B.zero g) Curve.Inf);
        Alcotest.(check bool) "1*g = g" true (Curve.equal (Curve.mul f B.one g) g));
    Alcotest.test_case "double equals add to self" `Quick (fun () ->
        let pr = p () in
        let f = pr.Params.fp and g = pr.Params.g in
        Alcotest.(check bool) "2g" true (Curve.equal (Curve.double f g) (Curve.add f g g));
        Alcotest.(check bool) "2g = mul 2" true
          (Curve.equal (Curve.double f g) (Curve.mul f B.two g)));
    Alcotest.test_case "make validates curve membership" `Quick (fun () ->
        let f = fp () in
        Alcotest.check_raises "off-curve" (Invalid_argument "Curve.make: not on curve") (fun () ->
            ignore (Curve.make f ~x:(B.of_int 12345) ~y:(B.of_int 1))));
    Alcotest.test_case "order-2 point doubles to infinity" `Quick (fun () ->
        (* (-1, 0) is on y² = x³ + 1 and has order 2 *)
        let f = fp () in
        let pt = Curve.make f ~x:(Field.neg f B.one) ~y:B.zero in
        Alcotest.(check bool) "2*(-1,0) = O" true (Curve.equal (Curve.double f pt) Curve.Inf));
    Alcotest.test_case "compress/decompress golden cases" `Quick (fun () ->
        let pr = p () in
        let f = pr.Params.fp in
        (* infinity encodes as all-0xff *)
        let inf_bytes = Curve.to_bytes f Curve.Inf in
        Alcotest.(check bool) "inf roundtrip" true (Curve.of_bytes f inf_bytes = Some Curve.Inf);
        (* malformed length and parity byte *)
        Alcotest.(check bool) "short" true (Curve.of_bytes f "xx" = None);
        let bad = Bytes.of_string (Curve.to_bytes f pr.Params.g) in
        Bytes.set bad (Bytes.length bad - 1) '\x07';
        Alcotest.(check bool) "bad parity byte" true (Curve.of_bytes f (Bytes.to_string bad) = None);
        (* x = −1 has the single root y = 0, so (−1, 0) encodes only with
           the even parity byte; the odd one must not decode to it *)
        List.iter
          (fun f ->
            let x = Field.to_bytes f (Field.neg f B.one) in
            let two_torsion = Curve.make f ~x:(Field.neg f B.one) ~y:B.zero in
            Alcotest.(check bool) "(p−1)‖00 is (−1, 0)" true
              (Curve.of_bytes f (x ^ "\x00") = Some two_torsion);
            Alcotest.(check string) "(−1, 0) encodes as (p−1)‖00" (x ^ "\x00")
              (Curve.to_bytes f two_torsion);
            Alcotest.(check bool) "(p−1)‖01 rejected" true (Curve.of_bytes f (x ^ "\x01") = None))
          [ f; (Params.production ()).Params.fp ]);
  ]

let prop name ?(count = 40) arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let property_tests =
  [
    prop "closure" QCheck.(pair arb_point arb_point) (fun (a, b) ->
        Curve.is_on_curve (fp ()) (Curve.add (fp ()) a b));
    prop "commutativity" QCheck.(pair arb_point arb_point) (fun (a, b) ->
        let f = fp () in
        Curve.equal (Curve.add f a b) (Curve.add f b a));
    prop "associativity" QCheck.(triple arb_point arb_point arb_point) (fun (a, b, c) ->
        let f = fp () in
        Curve.equal (Curve.add f (Curve.add f a b) c) (Curve.add f a (Curve.add f b c)));
    prop "scalar mul linearity" QCheck.(pair (int_range 0 1000) (int_range 0 1000)) (fun (m, n) ->
        let pr = p () in
        let f = pr.Params.fp and g = pr.Params.g in
        Curve.equal
          (Curve.add f (Curve.mul f (B.of_int m) g) (Curve.mul f (B.of_int n) g))
          (Curve.mul f (B.of_int (m + n)) g));
    prop "scalar mul composes" QCheck.(pair (int_range 0 200) (int_range 0 200)) (fun (m, n) ->
        let pr = p () in
        let f = pr.Params.fp and g = pr.Params.g in
        Curve.equal
          (Curve.mul f (B.of_int m) (Curve.mul f (B.of_int n) g))
          (Curve.mul f (B.of_int (m * n)) g));
    prop "compression roundtrip" arb_point (fun pt ->
        let f = fp () in
        Curve.of_bytes f (Curve.to_bytes f pt) = Some pt);
    prop "neg negates" arb_point (fun pt ->
        let f = fp () in
        Curve.equal (Curve.add f pt (Curve.neg f pt)) Curve.Inf);
  ]

let suite = unit_tests @ property_tests

(* Jacobian scalar multiplication vs the affine reference ladder. *)
let jacobian_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"jacobian mul matches affine ladder" ~count:40
         QCheck.(pair (int_range 0 100_000) (int_range 0 1_000_000))
         (fun (k, seed) ->
           let pr = p () in
           let rng = Drbg.create ~seed:(string_of_int seed) in
           let pt = Curve.mul pr.Params.fp (Drbg.bigint_below rng pr.Params.q) pr.Params.g in
           Curve.equal
             (Curve.mul pr.Params.fp (B.of_int k) pt)
             (Curve.mul_affine pr.Params.fp (B.of_int k) pt)));
    Alcotest.test_case "jacobian edge cases" `Quick (fun () ->
        let pr = p () in
        let f = pr.Params.fp and g = pr.Params.g in
        Alcotest.(check bool) "0*g" true (Curve.equal (Curve.mul f B.zero g) Curve.Inf);
        Alcotest.(check bool) "k*O" true (Curve.equal (Curve.mul f (B.of_int 7) Curve.Inf) Curve.Inf);
        Alcotest.(check bool) "q*g" true (Curve.equal (Curve.mul f pr.Params.q g) Curve.Inf);
        (* through an order-2 point: doubling must hit infinity cleanly *)
        let two_torsion = Curve.make f ~x:(Alpenhorn_pairing.Field.neg f B.one) ~y:B.zero in
        Alcotest.(check bool) "2*(order-2)" true
          (Curve.equal (Curve.mul f B.two two_torsion) Curve.Inf);
        Alcotest.(check bool) "3*(order-2) = itself" true
          (Curve.equal (Curve.mul f (B.of_int 3) two_torsion) two_torsion));
  ]

let suite = suite @ jacobian_tests
