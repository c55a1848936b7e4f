(* Cross-validation of the fixed-limb Montgomery kernel against the
   generic Bigint + Barrett reference: every kernel operation, on both
   parameter-set moduli, over randomized inputs plus the edge vectors
   0, 1, p−1 and limb-saturated values; the in-place forms at every
   placement of their destination. The windowed scalar multiplication and
   fixed-base tables in Curve are validated against the affine ladder the
   same way. *)

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

(* 2^(30k) − 1 for 0 < k < n fills k limbs with ones: the largest limb
   values the fused loop's carry bound has to hold *)
let edge_vectors f =
  let p = Field.modulus f in
  let saturated =
    List.init (Mont.limbs (Field.mont_ctx f) - 1) (fun k ->
        B.sub (B.shift_left B.one (30 * (k + 1))) B.one)
  in
  [ B.zero; B.one; B.two; B.sub p B.one; B.sub p B.two; B.shift_right p 1 ] @ saturated

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

let cube_roots f a _ =
  let ctx = Field.mont_ctx f in
  check_b "cbrt" (Field.cbrt f a) (Mont.to_bigint ctx (Mont.cbrt ctx (Mont.of_bigint ctx a)));
  let cube = Field.mul f (Field.sqr f a) a in
  check_b "cbrt of a cube" a (Mont.to_bigint ctx (Mont.cbrt ctx (Mont.of_bigint ctx cube)))

(* [op dst x y] against [reference x y] with its destination fresh, the
   first input, the second, and both inputs at once (one array is then
   both operands). [lift] builds a kernel value, [check msg expected got]
   compares one with a reference value. *)
let placements ~lift ~fresh ~check name op reference x y =
  let xm = lift x and ym = lift y and d = fresh () in
  op d xm ym;
  check (name ^ " fresh") (reference x y) d;
  check (name ^ " leaves a") x xm;
  check (name ^ " leaves b") y ym;
  op xm xm ym;
  check (name ^ " dst = a") (reference x y) xm;
  let xm = lift x in
  op ym xm ym;
  check (name ^ " dst = b") (reference x y) ym;
  op xm xm xm;
  check (name ^ " dst = a = b") (reference x x) xm

(* the same for a one-input [op]: destination fresh, or the input *)
let unary_placements ~lift ~fresh ~check name op reference x =
  let xm = lift x and d = fresh () in
  op d xm;
  check (name ^ " fresh") (reference x) d;
  check (name ^ " leaves a") x xm;
  op xm xm;
  check (name ^ " dst = a") (reference x) xm

let into_ops f a b =
  let ctx = Field.mont_ctx f in
  let lift = Mont.of_bigint ctx and fresh () = Mont.zero ctx in
  let check msg expected got = check_b msg expected (Mont.to_bigint ctx got) in
  let binary name op reference = placements ~lift ~fresh ~check name (op ctx) reference a b in
  let unary name op reference = unary_placements ~lift ~fresh ~check name (op ctx) reference a in
  binary "mul_into" Mont.mul_into (Field.mul f);
  binary "add_into" Mont.add_into (Field.add f);
  binary "sub_into" Mont.sub_into (Field.sub f);
  unary "neg_into" Mont.neg_into (Field.neg f);
  unary "mul_small_into" (fun ctx d x -> Mont.mul_small_into ctx d x 12) (fun x -> Field.mul_int f x 12);
  unary "pow_into" (fun ctx d x -> Mont.pow_into ctx d x b) (fun x -> Field.pow f x b);
  unary "cbrt_into" Mont.cbrt_into (Field.cbrt f);
  if not (B.is_zero a) then unary "inv_into" Mont.inv_into (Field.inv f);
  let root = Option.map B.to_string (Field.sqrt f a) in
  let sqrt_into d x = if Mont.sqrt_into ctx d x then Some (B.to_string (Mont.to_bigint ctx d)) else None in
  Alcotest.(check (option string)) "sqrt_into fresh" root (sqrt_into (fresh ()) (lift a));
  let am = lift a in
  Alcotest.(check (option string)) "sqrt_into dst = a" root (sqrt_into am am)

let f2_into_ops f a b =
  let ctx = Field.mont_ctx f in
  let module Fp2 = Alpenhorn_pairing.Fp2 in
  let module F2 = Mont.F2 in
  let s = F2.scratch ctx in
  let x = Fp2.make a b and y = Fp2.make b (Field.add f a b) in
  let lift (e : Fp2.el) = { F2.re = Mont.of_bigint ctx e.Fp2.re; im = Mont.of_bigint ctx e.Fp2.im }
  and fresh () = F2.zero ctx in
  let check msg expected (got : F2.f2) =
    Alcotest.(check bool) msg true
      (Fp2.equal expected (Fp2.make (Mont.to_bigint ctx got.re) (Mont.to_bigint ctx got.im)))
  in
  let binary name op reference = placements ~lift ~fresh ~check name op reference x y in
  let unary name op reference = unary_placements ~lift ~fresh ~check name op reference x in
  binary "f2 mul_into" (F2.mul_into ctx s) (Fp2.mul f);
  binary "f2 add_into" (F2.add_into ctx) (Fp2.add f);
  binary "f2 sub_into" (F2.sub_into ctx) (Fp2.sub f);
  unary "f2 sqr_into" (F2.sqr_into ctx s) (Fp2.sqr f);
  unary "f2 conj_into" (F2.conj_into ctx) (Fp2.conj f);
  unary "f2 pow_into" (fun d v -> F2.pow_into ctx s d v b) (fun v -> Fp2.pow f v b);
  unary "f2 mul_el_into" (fun d v -> F2.mul_el_into ctx d v (Mont.of_bigint ctx b))
    (fun v -> Fp2.mul_fp f v b);
  if not (Fp2.is_zero x) then unary "f2 inv_into" (F2.inv_into ctx s) (Fp2.inv f)

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
    t "cbrt" cube_roots;
    t "fp2 ops" f2_ops;
    t "in-place ops at every destination" into_ops;
    t "fp2 in-place ops at every destination" f2_into_ops;
    Alcotest.test_case "in-place ops allocate nothing" `Quick (fun () ->
        let f = Lazy.force production_fp in
        let ctx = Field.mont_ctx f in
        let rng = Drbg.create ~seed:"mont-alloc" in
        let a = Mont.of_bigint ctx (Drbg.bigint_below rng (Field.modulus f)) in
        let b = Mont.of_bigint ctx (Drbg.bigint_below rng (Field.modulus f)) in
        let d = Mont.zero ctx and calls = 1000 in
        let words name op =
          op ();
          let w0 = Gc.minor_words () in
          for _ = 1 to calls do
            op ()
          done;
          let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
          (* any allocation is at least 2 words (header and field) *)
          if per_call >= 1.0 then Alcotest.failf "%s allocates %.1f words per call" name per_call
        in
        words "mul_into" (fun () -> Mont.mul_into ctx d a b);
        words "add_into" (fun () -> Mont.add_into ctx d a b);
        words "sub_into" (fun () -> Mont.sub_into ctx d a b);
        words "is_zero" (fun () -> ignore (Sys.opaque_identity (Mont.is_zero a)));
        words "equal" (fun () -> ignore (Sys.opaque_identity (Mont.equal a b))));
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
