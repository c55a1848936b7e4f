(* The Tate pairing: bilinearity, non-degeneracy, hash-to-group. *)

module B = Alpenhorn_bigint.Bigint
module Curve = Alpenhorn_pairing.Curve
module Fp2 = Alpenhorn_pairing.Fp2
module Params = Alpenhorn_pairing.Params
module Pairing = Alpenhorn_pairing.Pairing
module Drbg = Alpenhorn_crypto.Drbg
module Field = Alpenhorn_pairing.Field
module Mont = Alpenhorn_pairing.Mont
module Parallel = Alpenhorn_parallel.Parallel
module Tel = Alpenhorn_telemetry.Telemetry

let params = lazy (Params.test ())
let p () = Lazy.force params
let print_point = function
  | Curve.Inf -> "Inf"
  | Curve.Affine { x; y } -> Printf.sprintf "(%s, %s)" (B.to_hex x) (B.to_hex y)

let two_torsion pr = Curve.make pr.Params.fp ~x:(Field.neg pr.Params.fp B.one) ~y:B.zero

let unit_tests =
  [
    Alcotest.test_case "parameter sets validate" `Quick (fun () ->
        Params.validate (Params.test ());
        (* of_named resolves both presets *)
        ignore (Params.of_named "test");
        Alcotest.check_raises "unknown set" (Invalid_argument "Params.of_named: nope") (fun () ->
            ignore (Params.of_named "nope")));
    Alcotest.test_case "non-degeneracy: e(g,g) <> 1" `Quick (fun () ->
        let pr = p () in
        Alcotest.(check bool) "e(g,g)" false
          (Fp2.equal (Pairing.pair pr pr.Params.g pr.Params.g) Fp2.one));
    Alcotest.test_case "pairing value has order q" `Quick (fun () ->
        let pr = p () in
        let e = Pairing.pair pr pr.Params.g pr.Params.g in
        Alcotest.(check bool) "e^q = 1" true (Fp2.equal (Fp2.pow pr.Params.fp e pr.Params.q) Fp2.one));
    Alcotest.test_case "rejects infinity" `Quick (fun () ->
        let pr = p () in
        Alcotest.check_raises "left" (Invalid_argument "Pairing.pair: point at infinity") (fun () ->
            ignore (Pairing.pair pr Curve.Inf pr.Params.g)));
    Alcotest.test_case "symmetry: e(a,b) = e(b,a)" `Quick (fun () ->
        let pr = p () in
        let f = pr.Params.fp and g = pr.Params.g in
        let a = Curve.mul f (B.of_int 123) g and b = Curve.mul f (B.of_int 456) g in
        Alcotest.(check bool) "symmetric" true (Fp2.equal (Pairing.pair pr a b) (Pairing.pair pr b a)));
    Alcotest.test_case "hash_to_group produces order-q curve points" `Quick (fun () ->
        let pr = p () in
        List.iter
          (fun id ->
            let h = Pairing.hash_to_group pr id in
            Alcotest.(check bool) (id ^ " on curve") true (Curve.is_on_curve pr.Params.fp h);
            Alcotest.(check bool) (id ^ " not inf") false (Curve.equal h Curve.Inf);
            Alcotest.(check bool) (id ^ " order q") true
              (Curve.equal (Curve.mul pr.Params.fp pr.Params.q h) Curve.Inf))
          [ "alice@example.org"; "bob@example.org"; ""; "x"; String.make 200 'z' ]);
    Alcotest.test_case "hash_to_group deterministic and collision-free on sample" `Quick (fun () ->
        let pr = p () in
        let h1 = Pairing.hash_to_group pr "alice@example.org" in
        let h2 = Pairing.hash_to_group pr "alice@example.org" in
        let h3 = Pairing.hash_to_group pr "bob@example.org" in
        Alcotest.(check bool) "deterministic" true (Curve.equal h1 h2);
        Alcotest.(check bool) "distinct ids distinct points" false (Curve.equal h1 h3));
    Alcotest.test_case "hash_to_group points match the Bigint formulation" `Quick (fun () ->
        (* the admissible encoding on the reference path: Field's cube root
           and the affine ladder *)
        let reference (pr : Params.t) id =
          let fp = pr.Params.fp in
          let rec attempt ctr =
            let stream =
              Alpenhorn_crypto.Hmac.hkdf
                ~info:(Printf.sprintf "alpenhorn-h2g-%d" ctr)
                ~len:(Field.element_bytes fp + 16) id
            in
            let y = B.rem (B.of_bytes_be stream) (Field.modulus fp) in
            let y2m1 = Field.sub fp (Field.sqr fp y) B.one in
            if Field.is_zero y2m1 then attempt (ctr + 1)
            else
              match Curve.mul_affine fp pr.Params.cofactor (Curve.Affine { x = Field.cbrt fp y2m1; y }) with
              | Curve.Inf -> attempt (ctr + 1)
              | g -> g
          in
          attempt 0
        in
        List.iter
          (fun pr ->
            List.iter
              (fun id ->
                Alcotest.(check string) id
                  (print_point (reference pr id))
                  (print_point (Pairing.hash_to_group pr id)))
              [ "alice@example.org"; "bob@example.org"; ""; "x"; String.make 200 'z' ])
          [ p (); Params.production () ]);
    Alcotest.test_case "hash_to_scalar in range and deterministic" `Quick (fun () ->
        let pr = p () in
        let s1 = Pairing.hash_to_scalar pr "msg" and s2 = Pairing.hash_to_scalar pr "msg" in
        Alcotest.(check bool) "deterministic" true (B.equal s1 s2);
        Alcotest.(check bool) "in (0, q)" true (B.sign s1 > 0 && B.compare s1 pr.Params.q < 0);
        Alcotest.(check bool) "differs by msg" false
          (B.equal s1 (Pairing.hash_to_scalar pr "other")));
    Alcotest.test_case "gt_pow equals Fp2.pow" `Quick (fun () ->
        let pr = p () in
        let e = Pairing.pair pr pr.Params.g pr.Params.g in
        let rng = Drbg.create ~seed:"gt-pow" in
        List.iter
          (fun r ->
            Alcotest.(check bool) "same element" true
              (Fp2.equal (Pairing.gt_pow pr e r) (Fp2.pow pr.Params.fp e r)))
          [ B.zero; B.one; pr.Params.q; Drbg.bigint_below rng pr.Params.q ]);
    Alcotest.test_case "gt serialization is canonical" `Quick (fun () ->
        let pr = p () in
        let e = Pairing.pair pr pr.Params.g pr.Params.g in
        Alcotest.(check string) "same bytes" (Pairing.gt_bytes pr e) (Pairing.gt_bytes pr e));
  ]

(* regression: the 2-torsion point (-1, 0) used to hit the tangent branch
   with y = 0 and raise Division_by_zero; the tangent there is vertical *)
let two_torsion_tests =
  [
    Alcotest.test_case "line_and_add doubles 2-torsion as a vertical" `Quick (fun () ->
        let pr = p () in
        let f = pr.Params.fp in
        let t = two_torsion pr in
        let xq = Fp2.mul_fp f pr.Params.zeta (B.of_int 7) and yq = Fp2.of_fp (B.of_int 9) in
        let l, v, sum = Pairing.line_and_add f t t ~xq ~yq in
        Alcotest.(check bool) "t + t = O" true (Curve.equal sum Curve.Inf);
        Alcotest.(check bool) "v = 1" true (Fp2.equal v Fp2.one);
        (* the vertical through x = -1, evaluated at xq *)
        Alcotest.(check bool) "l = xq + 1" true
          (Fp2.equal l (Fp2.sub f xq (Fp2.of_fp (Alpenhorn_pairing.Field.neg f B.one)))));
    Alcotest.test_case "Curve.double of 2-torsion is O" `Quick (fun () ->
        let pr = p () in
        Alcotest.(check bool) "double" true
          (Curve.equal (Curve.double pr.Params.fp (two_torsion pr)) Curve.Inf));
    Alcotest.test_case "pairing with a 2-torsion first argument does not raise" `Quick (fun () ->
        let pr = p () in
        let t = two_torsion pr in
        (* the Miller loop doubles through y = 0 immediately; both paths
           must survive and agree *)
        Alcotest.(check bool) "fast = reference" true
          (Fp2.equal (Pairing.pair pr t pr.Params.g) (Pairing.pair_reference pr t pr.Params.g)));
  ]

let fast_path_tests =
  [
    Alcotest.test_case "fast pairing equals reference on random points" `Quick (fun () ->
        let pr = p () in
        let f = pr.Params.fp and g = pr.Params.g in
        let rng = Drbg.create ~seed:"pair-fast" in
        for i = 1 to 12 do
          let a = Curve.mul f (Drbg.bigint_below rng pr.Params.q) g in
          let b =
            if i mod 2 = 0 then Pairing.hash_to_group pr (string_of_int i)
            else Curve.mul f (Drbg.bigint_below rng pr.Params.q) g
          in
          match (a, b) with
          | Curve.Inf, _ | _, Curve.Inf -> ()
          | _ ->
            Alcotest.(check bool) "fast = reference" true
              (Fp2.equal (Pairing.pair pr a b) (Pairing.pair_reference pr a b))
        done);
    Alcotest.test_case "fast pairing equals reference on the production curve" `Slow (fun () ->
        let pr = Params.production () in
        let h = Pairing.hash_to_group pr "production-probe" in
        Alcotest.(check bool) "fast = reference" true
          (Fp2.equal (Pairing.pair pr pr.Params.g h) (Pairing.pair_reference pr pr.Params.g h)));
    Alcotest.test_case "pair_cached equals pair and hits on repeats" `Quick (fun () ->
        let pr = p () in
        let h = Pairing.hash_to_group pr "cache-probe" in
        ignore (Tel.Snapshot.take ~reset:true Tel.default);
        let e1 = Pairing.pair_cached pr h pr.Params.g in
        let e2 = Pairing.pair_cached pr h pr.Params.g in
        Alcotest.(check bool) "cached = direct" true (Fp2.equal e1 (Pairing.pair pr h pr.Params.g));
        Alcotest.(check bool) "stable" true (Fp2.equal e1 e2);
        let snap = Tel.Snapshot.take Tel.default in
        Alcotest.(check bool) "at least one hit" true
          (Tel.Snapshot.counter_sum snap "pairing.cache_hits" >= 1);
        Alcotest.(check bool) "at least one miss" true
          (Tel.Snapshot.counter_sum snap "pairing.cache_misses" >= 1));
  ]

(* ---- the prepared first argument ---- *)

(* G1 points, curve points outside G1 (no cofactor clearing) and the
   2-torsion point *)
let sample_points pr ~seed ~g1 ~off =
  let f = pr.Params.fp in
  let rng = Drbg.create ~seed in
  let rec off_g1 () =
    let y = Drbg.bigint_below rng (Field.modulus f) in
    let y2m1 = Field.sub f (Field.sqr f y) B.one in
    if Field.is_zero y2m1 then off_g1 () else Curve.make f ~x:(Field.cbrt f y2m1) ~y
  in
  List.init g1 (fun _ ->
      Params.mul_g pr (B.add B.one (Drbg.bigint_below rng (B.sub pr.Params.q B.one))))
  @ List.init off (fun _ -> off_g1 ())
  @ [ two_torsion pr ]

(* every point as the prepared first argument against every point *)
let prepared_agrees pr pts =
  List.iter
    (fun a ->
      Pairing.with_prepared pr a (fun k ->
          List.iter
            (fun b ->
              let e = Pairing.pair pr a b in
              Alcotest.(check bool) "prepared = pair" true (Fp2.equal (Pairing.pair_prepared k b) e);
              Alcotest.(check bool) "pair = reference" true
                (Fp2.equal e (Pairing.pair_reference pr a b)))
            pts))
    pts

let prepared_tests =
  let all_zero t = Array.for_all (( = ) 0) t in
  [
    Alcotest.test_case "prepared key equals pair and the reference on the test curve" `Quick
      (fun () ->
        let pr = p () in
        prepared_agrees pr (sample_points pr ~seed:"prep-test" ~g1:3 ~off:2));
    Alcotest.test_case "prepared key equals pair and the reference on the production curve" `Slow
      (fun () ->
        let pr = Params.production () in
        prepared_agrees pr (sample_points pr ~seed:"prep-prod" ~g1:1 ~off:1));
    Alcotest.test_case "one prepared key at many second arguments across 4 domains" `Quick
      (fun () ->
        let pr = p () in
        Pairing.warmup pr;
        let a = Pairing.hash_to_group pr "shared-key" in
        let bs =
          Array.of_list
            (sample_points pr ~seed:"prep-shared" ~g1:24 ~off:3
            @ List.init 4 (fun i -> Pairing.hash_to_group pr (string_of_int i)))
        in
        let expected = Array.map (Pairing.pair pr a) bs in
        let pool = Parallel.create ~domains:4 in
        let got =
          Fun.protect
            ~finally:(fun () -> Parallel.shutdown pool)
            (fun () ->
              Pairing.with_prepared pr a (fun k -> Parallel.map pool (Pairing.pair_prepared k) bs))
        in
        Array.iteri
          (fun i e -> Alcotest.(check bool) (Printf.sprintf "point %d" i) true (Fp2.equal got.(i) e))
          expected);
    Alcotest.test_case "prepared key dies with its scope, which zeroes the table" `Quick (fun () ->
        let pr = p () in
        let g = pr.Params.g and h = Pairing.hash_to_group pr "scope" in
        let k, table =
          Pairing.with_prepared pr g (fun k ->
              let t = Pairing.prepared_table k in
              Alcotest.(check bool) "filled inside the scope" false (all_zero t);
              (k, t))
        in
        Alcotest.(check bool) "zeroed on release" true (all_zero table);
        Alcotest.check_raises "used after its scope"
          (Invalid_argument "Pairing.pair_prepared: key used after its with_prepared scope")
          (fun () -> ignore (Pairing.pair_prepared k h));
        let seen = ref [||] in
        Alcotest.check_raises "the callback's exception passes through" (Failure "scan aborted")
          (fun () ->
            Pairing.with_prepared pr g (fun k ->
                seen := Pairing.prepared_table k;
                failwith "scan aborted"));
        Alcotest.(check bool) "zeroed when the callback raises" true
          (Array.length !seen > 0 && all_zero !seen);
        (* a nested preparation on the same domain gets its own table *)
        Pairing.with_prepared pr g (fun outer ->
            let inner = Pairing.with_prepared pr h (fun inner -> Pairing.pair_prepared inner g) in
            Alcotest.(check bool) "inner" true (Fp2.equal inner (Pairing.pair pr h g));
            Alcotest.(check bool) "outer still live" true
              (Fp2.equal (Pairing.pair_prepared outer h) (Pairing.pair pr g h)));
        Alcotest.check_raises "infinity" (Invalid_argument "Pairing.with_prepared: point at infinity")
          (fun () -> Pairing.with_prepared pr Curve.Inf ignore));
    Alcotest.test_case "final_exp equals the full power" `Quick (fun () ->
        List.iter
          (fun pr ->
            let ctx = Field.mont_ctx pr.Params.fp in
            let rng = Drbg.create ~seed:"final-exp" in
            let el () = Mont.of_bigint ctx (Drbg.bigint_below rng (Field.modulus pr.Params.fp)) in
            let fs =
              { Mont.F2.re = Mont.one ctx; im = Mont.zero ctx }
              :: { Mont.F2.re = el (); im = Mont.zero ctx }
              :: List.init 10 (fun _ -> { Mont.F2.re = el (); im = el () })
            in
            List.iter
              (fun f ->
                if not (Mont.F2.is_zero f) then
                  Alcotest.(check bool) "final_exp" true
                    (Mont.F2.equal (Pairing.final_exp pr f) (Mont.F2.pow ctx f pr.Params.tate_exp)))
              fs)
          [ p (); Params.production () ]);
  ]

(* Words allocated and kernel multiplications per call on the production
   curve. The word budgets are a tenth of what the allocating kernel
   spent (248 k per pair, 108 k per prepared pairing, 90 k per scalar
   multiplication); the multiplication counts are the allocating
   kernel's, which the in-place one must not exceed. *)
let budget_tests =
  [
    Alcotest.test_case "allocation and multiplication budgets on the production curve" `Quick
      (fun () ->
        let pr = Params.production () in
        let a = Pairing.hash_to_group pr "budget-a" and b = Pairing.hash_to_group pr "budget-b" in
        let muls = Tel.Counter.v Tel.default "pairing.mont_mul" in
        let cost name ~words ?max_muls op =
          ignore (op ());
          let m0 = Tel.Counter.value muls and w0 = Gc.minor_words () in
          ignore (Sys.opaque_identity (op ()));
          let w = Gc.minor_words () -. w0 and m = Tel.Counter.value muls - m0 in
          if w > words then Alcotest.failf "%s allocates %.0f words (budget %.0f)" name w words;
          Option.iter
            (fun budget ->
              if m > budget then Alcotest.failf "%s runs %d multiplications (at most %d)" name m budget)
            max_muls
        in
        cost "pair" ~words:25_000. ~max_muls:8030 (fun () -> Pairing.pair pr a b);
        Pairing.with_prepared pr a (fun key ->
            cost "pair_prepared" ~words:11_000. ~max_muls:3399 (fun () -> Pairing.pair_prepared key b));
        cost "Curve.mul" ~words:9_000. (fun () -> Curve.mul pr.Params.fp (B.sub pr.Params.q B.one) a));
  ]

let prop name ?(count = 15) arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let property_tests =
  [
    prop "bilinearity in the first argument" QCheck.(pair (int_range 1 500) (int_range 1 500))
      (fun (a, b) ->
        let pr = p () in
        let f = pr.Params.fp and g = pr.Params.g in
        let lhs = Pairing.pair pr (Curve.mul f (B.of_int a) g) (Curve.mul f (B.of_int b) g) in
        let rhs = Fp2.pow f (Pairing.pair pr g g) (B.of_int (a * b)) in
        Fp2.equal lhs rhs);
    prop "pairing with hashed points is bilinear" QCheck.(pair (int_range 1 300) small_string)
      (fun (a, id) ->
        let pr = p () in
        let f = pr.Params.fp in
        let h = Pairing.hash_to_group pr id in
        let lhs = Pairing.pair pr (Curve.mul f (B.of_int a) pr.Params.g) h in
        let rhs = Fp2.pow f (Pairing.pair pr pr.Params.g h) (B.of_int a) in
        Fp2.equal lhs rhs);
    prop "e(aP, bQ) = e(bP, aQ)" QCheck.(pair (int_range 1 200) (int_range 1 200)) (fun (a, b) ->
        let pr = p () in
        let f = pr.Params.fp and g = pr.Params.g in
        let h = Pairing.hash_to_group pr "swap-test" in
        Fp2.equal
          (Pairing.pair pr (Curve.mul f (B.of_int a) g) (Curve.mul f (B.of_int b) h))
          (Pairing.pair pr (Curve.mul f (B.of_int b) g) (Curve.mul f (B.of_int a) h)));
  ]

let suite =
  unit_tests @ two_torsion_tests @ fast_path_tests @ prepared_tests @ budget_tests @ property_tests
