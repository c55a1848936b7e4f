(* Cross-validation of the fixed-limb Montgomery kernel against the
   generic Bigint + Barrett reference: every kernel operation, on both
   parameter-set moduli, over randomized inputs plus the edge vectors
   0, 1, p−1. The windowed scalar multiplication and fixed-base tables in
   Curve are validated against the affine ladder the same way. *)

module B = Alpenhorn_bigint.Bigint
module Field = Alpenhorn_pairing.Field
module Mont = Alpenhorn_pairing.Mont
module Curve = Alpenhorn_pairing.Curve
module Params = Alpenhorn_pairing.Params
module Drbg = Alpenhorn_crypto.Drbg

let params = lazy (Params.test ())
let fp () = (Lazy.force params).Params.fp

(* a second, unrelated modulus (the production prime) so limb-count-specific
   bugs can't hide behind the test curve's 72-bit p *)
let production_fp = lazy (Params.production ()).Params.fp

let check_b msg expected got = Alcotest.(check string) msg (B.to_string expected) (B.to_string got)

let edge_vectors f =
  let p = Field.modulus f in
  [ B.zero; B.one; B.two; B.sub p B.one; B.sub p B.two; B.shift_right p 1 ]

(* run [check f a b] on random pairs and on all pairs of edge vectors *)
let cross f ~seed ~rounds check =
  let p = Field.modulus f in
  let rng = Drbg.create ~seed in
  let edges = edge_vectors f in
  List.iter (fun a -> List.iter (fun b -> check f a b) edges) edges;
  for _ = 1 to rounds do
    check f (Drbg.bigint_below rng p) (Drbg.bigint_below rng p)
  done

let roundtrip f a b =
  let ctx = Field.mont_ctx f in
  check_b "of/to roundtrip" a (Mont.to_bigint ctx (Mont.of_bigint ctx a));
  (* of_bigint must also reduce non-canonical and negative inputs *)
  let p = Field.modulus f in
  check_b "non-canonical" a (Mont.to_bigint ctx (Mont.of_bigint ctx (B.add a p)));
  check_b "negative"
    (B.rem (B.sub b (B.mul p p)) p)
    (Mont.to_bigint ctx (Mont.of_bigint ctx (B.sub b (B.mul p p))))

let ring_ops f a b =
  let ctx = Field.mont_ctx f in
  let am = Mont.of_bigint ctx a and bm = Mont.of_bigint ctx b in
  let out op = Mont.to_bigint ctx op in
  check_b "mul" (Field.mul f a b) (out (Mont.mul ctx am bm));
  check_b "sqr" (Field.sqr f a) (out (Mont.sqr ctx am));
  check_b "add" (Field.add f a b) (out (Mont.add ctx am bm));
  check_b "sub" (Field.sub f a b) (out (Mont.sub ctx am bm));
  check_b "neg" (Field.neg f a) (out (Mont.neg ctx am));
  check_b "mul_small 2" (Field.mul_int f a 2) (out (Mont.mul_small ctx am 2));
  check_b "mul_small 3" (Field.mul_int f a 3) (out (Mont.mul_small ctx am 3));
  check_b "mul_small 8" (Field.mul_int f a 8) (out (Mont.mul_small ctx am 8));
  check_b "mul_small 12" (Field.mul_int f a 12) (out (Mont.mul_small ctx am 12));
  Alcotest.(check bool) "equal agrees" (B.equal a b) (Mont.equal am bm);
  Alcotest.(check bool) "is_zero agrees" (B.is_zero a) (Mont.is_zero am)

let inv_pow f a b =
  let ctx = Field.mont_ctx f in
  let am = Mont.of_bigint ctx a in
  if not (B.is_zero a) then
    check_b "inv" (Field.inv f a) (Mont.to_bigint ctx (Mont.inv ctx am))
  else
    Alcotest.check_raises "inv 0 raises" Division_by_zero (fun () -> ignore (Mont.inv ctx am));
  (* b doubles as the exponent: plain integer, can exceed p *)
  check_b "pow" (Field.pow f a b) (Mont.to_bigint ctx (Mont.pow ctx am b));
  check_b "pow 0 = 1" B.one (Mont.to_bigint ctx (Mont.pow ctx am B.zero))

let roots f a _ =
  let ctx = Field.mont_ctx f in
  let root x = Option.map (Mont.to_bigint ctx) (Mont.sqrt ctx (Mont.of_bigint ctx x)) in
  Alcotest.(check (option string)) "sqrt"
    (Option.map B.to_string (Field.sqrt f a))
    (Option.map B.to_string (root a));
  Alcotest.(check (option string)) "sqrt of a square"
    (Option.map B.to_string (Field.sqrt f (Field.sqr f a)))
    (Option.map B.to_string (root (Field.sqr f a)))

let f2_ops f a b =
  let ctx = Field.mont_ctx f in
  let module Fp2 = Alpenhorn_pairing.Fp2 in
  let x = Fp2.make a b and y = Fp2.make b (Field.add f a b) in
  let lift (e : Fp2.el) =
    { Mont.F2.re = Mont.of_bigint ctx e.Fp2.re; im = Mont.of_bigint ctx e.Fp2.im }
  in
  let lower (e : Mont.F2.f2) =
    Fp2.make (Mont.to_bigint ctx e.Mont.F2.re) (Mont.to_bigint ctx e.Mont.F2.im)
  in
  let check_f2 msg expected got =
    Alcotest.(check bool) msg true (Fp2.equal expected (lower got))
  in
  let xm = lift x and ym = lift y in
  check_f2 "f2 mul" (Fp2.mul f x y) (Mont.F2.mul ctx xm ym);
  check_f2 "f2 sqr" (Fp2.sqr f x) (Mont.F2.sqr ctx xm);
  check_f2 "f2 add" (Fp2.add f x y) (Mont.F2.add ctx xm ym);
  check_f2 "f2 sub" (Fp2.sub f x y) (Mont.F2.sub ctx xm ym);
  check_f2 "f2 mul_el" (Fp2.mul_fp f x a) (Mont.F2.mul_el ctx xm (Mont.of_bigint ctx a));
  if not (Fp2.is_zero x) then check_f2 "f2 inv" (Fp2.inv f x) (Mont.F2.inv ctx xm);
  check_f2 "f2 pow" (Fp2.pow f x b) (Mont.F2.pow ctx xm b)

let kernel_tests =
  let t name check =
    Alcotest.test_case name `Quick (fun () ->
        cross (fp ()) ~seed:("mont-" ^ name) ~rounds:250 check;
        cross (Lazy.force production_fp) ~seed:("mont-prod-" ^ name) ~rounds:60 check)
  in
  [
    t "roundtrip" roundtrip;
    t "ring ops" ring_ops;
    t "inv and pow" inv_pow;
    t "sqrt" roots;
    t "fp2 ops" f2_ops;
  ]

(* ---- windowed and fixed-base scalar multiplication ---- *)

let random_point f rng =
  (* y → x = cbrt(y² − 1), the same admissible encoding hash_to_group uses *)
  let rec go () =
    let y = Drbg.bigint_below rng (Field.modulus f) in
    let y2m1 = Field.sub f (Field.sqr f y) B.one in
    if Field.is_zero y2m1 then go ()
    else Curve.make f ~x:(Field.cbrt f y2m1) ~y
  in
  go ()

let scalar_mult_tests =
  [
    Alcotest.test_case "windowed mul matches affine ladder" `Quick (fun () ->
        let pr = Lazy.force params in
        let f = pr.Params.fp in
        let rng = Drbg.create ~seed:"mont-smul" in
        for _ = 1 to 150 do
          let pt = random_point f rng in
          let k = Drbg.bigint_below rng (Field.modulus f) in
          Alcotest.(check bool) "mul = mul_affine" true
            (Curve.equal (Curve.mul f k pt) (Curve.mul_affine f k pt))
        done);
    Alcotest.test_case "windowed mul edge scalars and points" `Quick (fun () ->
        let pr = Lazy.force params in
        let f = pr.Params.fp in
        let g = pr.Params.g in
        let two_torsion = Curve.make f ~x:(Field.neg f B.one) ~y:B.zero in
        List.iter
          (fun k ->
            List.iter
              (fun pt ->
                Alcotest.(check bool) "mul = mul_affine" true
                  (Curve.equal (Curve.mul f k pt) (Curve.mul_affine f k pt)))
              [ Curve.infinity; g; two_torsion; Curve.neg f g ])
          [ B.zero; B.one; B.two; B.of_int 15; B.of_int 16; B.of_int 17; pr.Params.q;
            B.sub pr.Params.q B.one; Field.modulus f ]);
    Alcotest.test_case "fixed-base table matches affine ladder" `Quick (fun () ->
        let pr = Lazy.force params in
        let f = pr.Params.fp in
        let rng = Drbg.create ~seed:"mont-fixed" in
        let tbl = Curve.Fixed_base.make f pr.Params.g in
        for _ = 1 to 100 do
          let k = Drbg.bigint_below rng pr.Params.q in
          Alcotest.(check bool) "fixed = affine" true
            (Curve.equal (Curve.Fixed_base.mul f tbl k) (Curve.mul_affine f k pr.Params.g))
        done;
        List.iter
          (fun k ->
            Alcotest.(check bool) "edge scalar" true
              (Curve.equal (Curve.Fixed_base.mul f tbl k) (Curve.mul_affine f k pr.Params.g)))
          [ B.zero; B.one; B.two; B.of_int 16; pr.Params.q; B.sub pr.Params.q B.one;
            (* wider than the table's windows: falls back to the generic path *)
            B.mul (Field.modulus f) (Field.modulus f) ]);
    Alcotest.test_case "fixed-base table for infinity" `Quick (fun () ->
        let f = (Lazy.force params).Params.fp in
        let tbl = Curve.Fixed_base.make f Curve.infinity in
        Alcotest.(check bool) "0 * Inf" true
          (Curve.equal Curve.infinity (Curve.Fixed_base.mul f tbl (B.of_int 12345))));
    Alcotest.test_case "Params.mul_g matches plain mul of g" `Quick (fun () ->
        let pr = Lazy.force params in
        let rng = Drbg.create ~seed:"mont-mulg" in
        for _ = 1 to 50 do
          let k = Drbg.bigint_below rng pr.Params.q in
          Alcotest.(check bool) "mul_g" true
            (Curve.equal (Params.mul_g pr k) (Curve.mul pr.Params.fp k pr.Params.g))
        done);
  ]

let suite = kernel_tests @ scalar_mult_tests
