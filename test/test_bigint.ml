(* Unit and property tests for the bignum substrate. *)

module B = Alpenhorn_bigint.Bigint

let check_eq msg a b = Alcotest.(check string) msg (B.to_string a) (B.to_string b)

(* deterministic RNG for property generators *)
let gen_bigint bits =
  QCheck.Gen.(
    map
      (fun (seed, neg) ->
        let rng = Alpenhorn_crypto.Drbg.create ~seed:(string_of_int seed) in
        let v = Alpenhorn_crypto.Drbg.bigint_bits rng bits in
        if neg then B.neg v else v)
      (pair (int_range 0 1_000_000) bool))

let arb_bigint ?(bits = 256) () = QCheck.make ~print:B.to_string (gen_bigint bits)

let arb_pos ?(bits = 256) () =
  QCheck.make ~print:B.to_string QCheck.Gen.(map B.abs (gen_bigint bits))

let unit_tests =
  [
    Alcotest.test_case "zero and one" `Quick (fun () ->
        Alcotest.(check bool) "zero is zero" true (B.is_zero B.zero);
        Alcotest.(check int) "sign zero" 0 (B.sign B.zero);
        check_eq "0+1" B.one (B.add B.zero B.one);
        check_eq "1*1" B.one (B.mul B.one B.one));
    Alcotest.test_case "of_int/to_int roundtrip" `Quick (fun () ->
        List.iter
          (fun n -> Alcotest.(check int) (string_of_int n) n (B.to_int (B.of_int n)))
          [ 0; 1; -1; 42; -42; max_int; min_int + 1; 1 lsl 40; -(1 lsl 40) ]);
    Alcotest.test_case "decimal string roundtrip" `Quick (fun () ->
        List.iter
          (fun s -> Alcotest.(check string) s s (B.to_string (B.of_string s)))
          [ "0"; "1"; "-1"; "123456789012345678901234567890"; "-987654321098765432109876543210" ]);
    Alcotest.test_case "hex parsing" `Quick (fun () ->
        check_eq "0xff" (B.of_int 255) (B.of_string "0xff");
        check_eq "0xFF" (B.of_int 255) (B.of_string "0xFF");
        check_eq "-0x10" (B.of_int (-16)) (B.of_string "-0x10");
        Alcotest.(check string) "to_hex" "ff" (B.to_hex (B.of_int 255)));
    Alcotest.test_case "malformed strings rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.check_raises s (Invalid_argument "Bigint.of_string") (fun () ->
                ignore (B.of_string s)))
          [ ""; "-"; "12a"; "0x"; "0xzz" ]);
    Alcotest.test_case "division by zero" `Quick (fun () ->
        Alcotest.check_raises "divmod" Division_by_zero (fun () ->
            ignore (B.divmod B.one B.zero)));
    Alcotest.test_case "euclidean remainder is non-negative" `Quick (fun () ->
        let a = B.of_int (-7) and b = B.of_int 3 in
        let q, r = B.divmod a b in
        check_eq "q" (B.of_int (-3)) q;
        check_eq "r" (B.of_int 2) r;
        let q, r = B.divmod a (B.of_int (-3)) in
        check_eq "q neg divisor" (B.of_int 3) q;
        check_eq "r neg divisor" (B.of_int 2) r);
    Alcotest.test_case "pow" `Quick (fun () ->
        check_eq "2^10" (B.of_int 1024) (B.pow B.two 10);
        check_eq "x^0" B.one (B.pow (B.of_int 7) 0);
        check_eq "0^0" B.one (B.pow B.zero 0));
    Alcotest.test_case "mod_pow known values" `Quick (fun () ->
        (* 2^10 mod 1000 = 24, 3^100 mod 7: 3^6=1 mod 7, 100 mod 6 = 4 -> 3^4=81=4 *)
        check_eq "2^10 mod 1000" (B.of_int 24) (B.mod_pow B.two (B.of_int 10) (B.of_int 1000));
        check_eq "3^100 mod 7" (B.of_int 4) (B.mod_pow (B.of_int 3) (B.of_int 100) (B.of_int 7)));
    Alcotest.test_case "mod_inv" `Quick (fun () ->
        check_eq "3^-1 mod 7" (B.of_int 5) (B.mod_inv (B.of_int 3) (B.of_int 7));
        Alcotest.check_raises "non-invertible" Division_by_zero (fun () ->
            ignore (B.mod_inv (B.of_int 4) (B.of_int 8))));
    Alcotest.test_case "gcd" `Quick (fun () ->
        check_eq "gcd(12,18)" (B.of_int 6) (B.gcd (B.of_int 12) (B.of_int 18));
        check_eq "gcd(-12,18)" (B.of_int 6) (B.gcd (B.of_int (-12)) (B.of_int 18));
        check_eq "gcd(0,5)" (B.of_int 5) (B.gcd B.zero (B.of_int 5)));
    Alcotest.test_case "numbits and testbit" `Quick (fun () ->
        Alcotest.(check int) "numbits 0" 0 (B.numbits B.zero);
        Alcotest.(check int) "numbits 1" 1 (B.numbits B.one);
        Alcotest.(check int) "numbits 255" 8 (B.numbits (B.of_int 255));
        Alcotest.(check int) "numbits 256" 9 (B.numbits (B.of_int 256));
        Alcotest.(check bool) "bit 0 of 5" true (B.testbit (B.of_int 5) 0);
        Alcotest.(check bool) "bit 1 of 5" false (B.testbit (B.of_int 5) 1);
        Alcotest.(check bool) "bit 2 of 5" true (B.testbit (B.of_int 5) 2));
    Alcotest.test_case "shifts" `Quick (fun () ->
        check_eq "1<<100 >>100" B.one (B.shift_right (B.shift_left B.one 100) 100);
        check_eq "5<<3" (B.of_int 40) (B.shift_left (B.of_int 5) 3);
        check_eq "40>>3" (B.of_int 5) (B.shift_right (B.of_int 40) 3);
        check_eq "-8>>1 floor" (B.of_int (-4)) (B.shift_right (B.of_int (-8)) 1));
    Alcotest.test_case "bytes roundtrip" `Quick (fun () ->
        let v = B.of_string "0xdeadbeefcafebabe1234" in
        check_eq "roundtrip" v (B.of_bytes_be (B.to_bytes_be v));
        Alcotest.(check int) "padded length" 32 (String.length (B.to_bytes_be ~len:32 v));
        Alcotest.check_raises "len too small" (Invalid_argument "Bigint.to_bytes_be: len too small")
          (fun () -> ignore (B.to_bytes_be ~len:2 v)));
    Alcotest.test_case "primality known values" `Quick (fun () ->
        let rng = Alpenhorn_crypto.Drbg.create ~seed:"prime-test" in
        let rand ~bits = Alpenhorn_crypto.Drbg.bigint_bits rng bits in
        let prime n = B.is_probable_prime ~rand (B.of_string n) in
        List.iter (fun n -> Alcotest.(check bool) (n ^ " prime") true (prime n))
          [ "2"; "3"; "5"; "7"; "65537"; "2147483647"; "170141183460469231731687303715884105727" ];
        List.iter (fun n -> Alcotest.(check bool) (n ^ " composite") false (prime n))
          [ "0"; "1"; "4"; "9"; "561"; "1105"; "6601"; "341550071728321" ]);
    Alcotest.test_case "karatsuba threshold crossing" `Quick (fun () ->
        (* multiply numbers big enough to trigger the Karatsuba path and
           check against the schoolbook result via a distributivity split *)
        let rng = Alpenhorn_crypto.Drbg.create ~seed:"karatsuba" in
        let a = Alpenhorn_crypto.Drbg.bigint_bits rng 4000 in
        let b = Alpenhorn_crypto.Drbg.bigint_bits rng 3500 in
        let half = B.shift_right b 1750 and rest = B.sub b (B.shift_left (B.shift_right b 1750) 1750) in
        let expected = B.add (B.mul a (B.shift_left half 1750)) (B.mul a rest) in
        check_eq "a*(hi+lo)" expected (B.mul a b));
  ]

let prop name ?(count = 100) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let property_tests =
  [
    prop "add comm" QCheck.(pair (arb_bigint ()) (arb_bigint ())) (fun (a, b) ->
        B.equal (B.add a b) (B.add b a));
    prop "add assoc" QCheck.(triple (arb_bigint ()) (arb_bigint ()) (arb_bigint ()))
      (fun (a, b, c) -> B.equal (B.add (B.add a b) c) (B.add a (B.add b c)));
    prop "sub inverse" QCheck.(pair (arb_bigint ()) (arb_bigint ())) (fun (a, b) ->
        B.equal (B.sub (B.add a b) b) a);
    prop "mul comm" QCheck.(pair (arb_bigint ~bits:300 ()) (arb_bigint ~bits:300 ()))
      (fun (a, b) -> B.equal (B.mul a b) (B.mul b a));
    prop "mul distributes" QCheck.(triple (arb_bigint ()) (arb_bigint ()) (arb_bigint ()))
      (fun (a, b, c) -> B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)));
    prop "divmod identity" QCheck.(pair (arb_bigint ~bits:400 ()) (arb_pos ~bits:200 ()))
      (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = B.divmod a b in
        B.equal a (B.add (B.mul q b) r) && B.sign r >= 0 && B.compare r (B.abs b) < 0);
    prop "string roundtrip" (arb_bigint ()) (fun a -> B.equal a (B.of_string (B.to_string a)));
    prop "hex roundtrip via bytes" (arb_pos ()) (fun a ->
        B.equal a (B.of_bytes_be (B.to_bytes_be a)));
    prop "shift is mul by 2^k"
      QCheck.(pair (arb_bigint ~bits:200 ()) (int_range 0 100))
      (fun (a, k) -> B.equal (B.shift_left a k) (B.mul a (B.pow B.two k)));
    prop "mod_pow matches naive" ~count:30
      QCheck.(triple (arb_pos ~bits:64 ()) (int_range 0 40) (arb_pos ~bits:64 ()))
      (fun (a, e, m) ->
        QCheck.assume (B.compare m B.two >= 0);
        B.equal (B.mod_pow a (B.of_int e) m) (B.rem (B.pow a e) m));
    prop "mod_inv is inverse" ~count:50
      QCheck.(pair (arb_pos ~bits:128 ()) (arb_pos ~bits:128 ()))
      (fun (a, m) ->
        QCheck.assume (B.compare m B.two >= 0 && B.equal (B.gcd a m) B.one);
        B.equal (B.rem (B.mul a (B.mod_inv a m)) m) (B.rem B.one m));
    prop "gcd divides both" QCheck.(pair (arb_pos ~bits:128 ()) (arb_pos ~bits:128 ()))
      (fun (a, b) ->
        QCheck.assume (not (B.is_zero a) || not (B.is_zero b));
        let g = B.gcd a b in
        B.is_zero (B.rem a g) && B.is_zero (B.rem b g));
    prop "compare total order" QCheck.(triple (arb_bigint ()) (arb_bigint ()) (arb_bigint ()))
      (fun (a, b, c) ->
        (* transitivity on this triple *)
        let sorted = List.sort B.compare [ a; b; c ] in
        match sorted with
        | [ x; y; z ] -> B.compare x y <= 0 && B.compare y z <= 0 && B.compare x z <= 0
        | _ -> false);
    prop "neg involutive" (arb_bigint ()) (fun a -> B.equal a (B.neg (B.neg a)));
    prop "abs non-negative" (arb_bigint ()) (fun a -> B.sign (B.abs a) >= 0);
  ]

let suite = unit_tests @ property_tests

(* third batch: overflow and boundary paths *)
let edge_tests =
  [
    Alcotest.test_case "to_int overflows raise" `Quick (fun () ->
        let big = B.shift_left B.one 70 in
        Alcotest.check_raises "positive" (Failure "Bigint.to_int: overflow") (fun () ->
            ignore (B.to_int big));
        Alcotest.check_raises "negative" (Failure "Bigint.to_int: overflow") (fun () ->
            ignore (B.to_int (B.neg big))));
    Alcotest.test_case "max_int boundary survives roundtrip" `Quick (fun () ->
        Alcotest.(check int) "max_int" max_int (B.to_int (B.of_int max_int));
        Alcotest.(check int) "min_int+1" (min_int + 1) (B.to_int (B.of_int (min_int + 1))));
    Alcotest.test_case "mod_pow rejects bad inputs" `Quick (fun () ->
        Alcotest.check_raises "zero modulus" (Invalid_argument "Bigint.mod_pow: modulus")
          (fun () -> ignore (B.mod_pow B.two B.two B.zero));
        Alcotest.check_raises "negative exponent" (Invalid_argument "Bigint.mod_pow: exponent")
          (fun () -> ignore (B.mod_pow B.two (B.of_int (-1)) (B.of_int 7))));
    Alcotest.test_case "pow rejects negative exponent" `Quick (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Bigint.pow") (fun () ->
            ignore (B.pow B.two (-1))));
    Alcotest.test_case "shift by zero and by multiples of limb size" `Quick (fun () ->
        let v = B.of_string "0x123456789abcdef0123456789" in
        Alcotest.(check string) "<<0" (B.to_hex v) (B.to_hex (B.shift_left v 0));
        Alcotest.(check string) ">>0" (B.to_hex v) (B.to_hex (B.shift_right v 0));
        Alcotest.(check string) "<<31>>31" (B.to_hex v)
          (B.to_hex (B.shift_right (B.shift_left v 31) 31));
        Alcotest.(check string) "<<62>>62" (B.to_hex v)
          (B.to_hex (B.shift_right (B.shift_left v 62) 62)));
    Alcotest.test_case "divmod near powers of the limb base" `Quick (fun () ->
        (* exercise the Knuth normalization/add-back region *)
        let b31 = B.shift_left B.one 31 in
        List.iter
          (fun (a, b) ->
            let q, r = B.divmod a b in
            Alcotest.(check bool) "identity" true (B.equal a (B.add (B.mul q b) r));
            Alcotest.(check bool) "remainder range" true
              (B.sign r >= 0 && B.compare r (B.abs b) < 0))
          [
            (B.sub (B.pow b31 3) B.one, B.sub (B.pow b31 2) B.one);
            (B.pow b31 4, B.add (B.pow b31 2) B.one);
            (B.sub (B.pow b31 2) B.one, B.sub b31 B.one);
            (B.pow b31 2, b31);
          ]);
    Alcotest.test_case "random_below stays under tight bounds" `Quick (fun () ->
        let rng = Alpenhorn_crypto.Drbg.create ~seed:"below" in
        let bound = B.of_int 3 in
        for _ = 1 to 200 do
          let v = B.random_below ~rand_bytes:(Alpenhorn_crypto.Drbg.bytes rng) bound in
          Alcotest.(check bool) "in [0,3)" true (B.sign v >= 0 && B.compare v bound < 0)
        done;
        Alcotest.check_raises "zero bound" (Invalid_argument "Bigint.random_below") (fun () ->
            ignore (B.random_below ~rand_bytes:(Alpenhorn_crypto.Drbg.bytes rng) B.zero)));
    Alcotest.test_case "to_limbs/of_limbs roundtrip" `Quick (fun () ->
        let vals =
          [
            B.zero;
            B.one;
            B.of_int max_int;
            B.shift_left B.one 31;
            B.sub (B.shift_left B.one 31) B.one;
            B.of_string "0x123456789abcdef0123456789abcdef0123456789";
          ]
        in
        List.iter
          (fun v ->
            Alcotest.(check string) "roundtrip" (B.to_hex v) (B.to_hex (B.of_limbs (B.to_limbs v))))
          vals;
        (* of_limbs strips leading zero limbs and copies its input *)
        let limbs = [| 5; 0; 0 |] in
        let v = B.of_limbs limbs in
        limbs.(0) <- 7;
        Alcotest.(check int) "copied, zeros stripped" 5 (B.to_int v);
        (* to_limbs is little-endian base 2^31 *)
        let w = B.add (B.shift_left (B.of_int 3) 31) B.two in
        Alcotest.(check bool) "limb order" true (B.to_limbs w = [| 2; 3 |]));
    Alcotest.test_case "is_even and parity arithmetic" `Quick (fun () ->
        Alcotest.(check bool) "0 even" true (B.is_even B.zero);
        Alcotest.(check bool) "1 odd" false (B.is_even B.one);
        Alcotest.(check bool) "-2 even" true (B.is_even (B.of_int (-2)));
        let big_odd = B.add (B.shift_left B.one 200) B.one in
        Alcotest.(check bool) "2^200+1 odd" false (B.is_even big_odd));
  ]

let suite = suite @ edge_tests

(* The byte codecs pack bytes into limbs directly; the per-byte
   definitions below (a shift and an add per byte read, a division by 256
   per byte written) are the oracle they must match bit for bit. *)
let of_bytes_per_byte s =
  let acc = ref B.zero in
  String.iter (fun c -> acc := B.add (B.shift_left !acc 8) (B.of_int (Char.code c))) s;
  !acc

let to_bytes_per_byte ?len t =
  let t = B.abs t in
  let nbytes = Stdlib.max ((B.numbits t + 7) / 8) 1 in
  let out_len =
    match len with
    | None -> nbytes
    | Some l -> if l < nbytes then invalid_arg "Bigint.to_bytes_be: len too small" else l
  in
  let b = Bytes.make out_len '\000' in
  let cur = ref t in
  for i = out_len - 1 downto 0 do
    if not (B.is_zero !cur) then begin
      let q, r = B.divmod !cur (B.of_int 256) in
      Bytes.set b i (Char.chr (B.to_int r));
      cur := q
    end
  done;
  Bytes.to_string b

let codec_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"byte codecs match the per-byte definitions" ~count:300
         QCheck.(pair (string_of_size Gen.(int_range 0 70)) (arb_bigint ~bits:400 ()))
         (fun (s, v) ->
           let widths = [ None; Some ((B.numbits v + 7) / 8); Some ((B.numbits v + 7) / 8 + 3); Some 0 ] in
           B.equal (B.of_bytes_be s) (of_bytes_per_byte s)
           && List.for_all
                (fun len ->
                  let run f = match f ?len v with s -> Ok s | exception Invalid_argument m -> Error m in
                  run B.to_bytes_be = run to_bytes_per_byte)
                widths));
    Alcotest.test_case "byte codecs on edge values" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check string) "of_bytes_be" (B.to_hex (of_bytes_per_byte s)) (B.to_hex (B.of_bytes_be s)))
          [ ""; "\000"; "\000\000\001"; "\255"; String.make 49 '\255'; String.make 31 '\128' ];
        List.iter
          (fun v ->
            Alcotest.(check string) "to_bytes_be" (to_bytes_per_byte v) (B.to_bytes_be v);
            Alcotest.(check string) "to_bytes_be ~len" (to_bytes_per_byte ~len:40 v) (B.to_bytes_be ~len:40 v))
          [ B.zero; B.one; B.of_int (-255); B.sub (B.shift_left B.one 248) B.one; B.shift_left B.one 279 ]);
  ]

let suite = suite @ codec_tests
