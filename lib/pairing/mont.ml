(* Fixed-width Montgomery arithmetic kernel.

   Elements are flat little-endian arrays of exactly [ctx.n] limbs of 30
   bits, held in Montgomery form (a·R mod p with R = 2^(30n)). With 30-bit
   limbs the FIOS inner step a_i·b_j + m·p_j + t_j + carry stays below
   2·(2^30−1)² + 2^30 + 2^32 < 2^62, so the schoolbook product and the
   Montgomery reduction share one loop over native ints with no overflow
   handling and no boxing. Operations write into a destination the caller
   owns, which may be one of the inputs; the allocating forms wrap them.
   This is the multiplication that every pairing, IBE and BLS operation in
   the system bottoms out in; the generic Bigint + Barrett path in [Field]
   stays as the reference implementation the property tests compare
   against.

   Multiplication, addition, subtraction and small-constant multiplication
   match on the limb count: 3 and 8 limbs (the two curves' fields) run the
   straight-line kernels of [Mont_kernels], generated at build time by
   gen/gen_kernels.ml from the loops below, and every other limb count
   runs the loops. *)

module Bigint = Alpenhorn_bigint.Bigint
module Tel = Alpenhorn_telemetry.Telemetry

let limb_bits = 30
let base = 1 lsl limb_bits
let mask = base - 1

(* Bigint's magnitudes use 31-bit limbs; of_bigint/to_bigint repack *)
let bigint_limb_bits = 31

type el = int array

type ctx = {
  n : int; (* limb count: ceil(numbits p / 30) *)
  p : el; (* modulus, n limbs *)
  p0inv : int; (* -p⁻¹ mod 2^30 *)
  r2 : el; (* R² mod p: of_bigint multiplies by this *)
  one_m : el; (* R mod p = Montgomery form of 1 *)
  one_raw : el; (* plain 1; mont-mul by it converts out of Montgomery form *)
  zero_c : el; (* never written: the minuend of [neg_into] *)
  pm2 : Bigint.t; (* p − 2, the Fermat inversion exponent *)
  sqrt_exp : Bigint.t; (* (p + 1)/4, the square-root exponent when p ≡ 3 (mod 4) *)
  cbrt_exp : Bigint.t option; (* (2p − 1)/3, the cube-root exponent, when p ≡ 2 (mod 3) *)
  p_big : Bigint.t;
  top_bits : int; (* bit length of p's top limb, in [1, 30] *)
  p_recip : int; (* ⌊2^56 / (P + 1)⌋ for P the top 28 significant bits of p *)
  acc : int array Domain.DLS.key; (* n+1 limbs: [mul_loop]'s accumulator, one per domain *)
  c_mul : Tel.Counter.t; (* kernel invocations ("pairing.mont_mul") *)
}

(* -p⁻¹ mod 2^30 by Newton's iteration: x ← x(2 − p₀x) doubles the number
   of correct low bits each step; x₀ = p₀ is correct mod 8 for odd p₀. *)
let neg_inv_limb p0 =
  let x = ref p0 in
  for _ = 1 to 5 do
    let t = (2 - (p0 * !x)) land mask in
    x := !x * t land mask
  done;
  (base - !x) land mask

(* little-endian limbs of [src_bits] bits to [len] limbs of [dst_bits] bits *)
let repack ~src_bits ~dst_bits src len =
  let dst = Array.make len 0 and dmask = (1 lsl dst_bits) - 1 in
  let j = ref 0 and acc = ref 0 and nacc = ref 0 in
  let emit v =
    if !j < len then dst.(!j) <- v
    else if v <> 0 then invalid_arg "Mont: value wider than modulus";
    incr j
  in
  Array.iter
    (fun limb ->
      acc := !acc lor (limb lsl !nacc);
      nacc := !nacc + src_bits;
      while !nacc >= dst_bits do
        emit (!acc land dmask);
        acc := !acc lsr dst_bits;
        nacc := !nacc - dst_bits
      done)
    src;
  emit !acc;
  dst

let limbs_of_bigint n x =
  repack ~src_bits:bigint_limb_bits ~dst_bits:limb_bits (Bigint.to_limbs x) n

(* The top 30 significant bits of a value whose limbs n, n−1 and n−2 are
   [hi], [mid] and [lo] (0 when absent), for a modulus whose top limb
   n−1 has [top_bits] bits; exact when the value has fewer bits. *)
let top30 ~top_bits hi mid lo =
  (hi lsl (60 - top_bits)) lor (mid lsl (30 - top_bits)) lor (lo lsr top_bits)

(* ⌊v/p⌋ or one less, for v < 12p given by [top30] of its top limbs. With
   V and P the top 28 significant bits of v and p (28 so that the product
   below stays under 2^62), V·⌊2^56/(P+1)⌋/2^56 ≤ V/(P+1) < v/p bounds
   it from above, and it falls short of v/p by less than 13/P + 12/2^28 <
   2^−22. The kernels of gen_kernels.ml inline the same formula. *)
let quotient_estimate ctx top = ((top lsr 2) * ctx.p_recip) lsr 56

let create p_big =
  if Bigint.is_even p_big || Bigint.sign p_big <= 0 then
    invalid_arg "Mont.create: modulus must be odd and positive";
  let n = (Bigint.numbits p_big + limb_bits - 1) / limb_bits in
  let p = limbs_of_bigint n p_big in
  let top_bits = Bigint.numbits p_big - (limb_bits * (n - 1)) in
  let p_top = top30 ~top_bits 0 p.(n - 1) (if n > 1 then p.(n - 2) else 0) in
  let r = Bigint.shift_left Bigint.one (limb_bits * n) in
  let one_raw = Array.make n 0 in
  one_raw.(0) <- 1;
  {
    n;
    p;
    p0inv = neg_inv_limb p.(0);
    r2 = limbs_of_bigint n (Bigint.rem (Bigint.mul r r) p_big);
    one_m = limbs_of_bigint n (Bigint.rem r p_big);
    one_raw;
    zero_c = Array.make n 0;
    pm2 = Bigint.sub p_big Bigint.two;
    sqrt_exp = Bigint.shift_right (Bigint.add p_big Bigint.one) 2;
    cbrt_exp =
      (let e, r = Bigint.divmod (Bigint.sub (Bigint.mul_int p_big 2) Bigint.one) (Bigint.of_int 3) in
       if Bigint.is_zero r then Some e else None);
    p_big;
    top_bits;
    p_recip = (1 lsl 56) / ((p_top lsr 2) + 1);
    acc = Domain.DLS.new_key (fun () -> Array.make (n + 1) 0);
    c_mul = Tel.Counter.v Tel.default "pairing.mont_mul";
  }

let limbs ctx = ctx.n
let zero ctx = Array.make ctx.n 0
let one ctx = Array.copy ctx.one_m

let copy_into (dst : el) (a : el) =
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set dst i (Array.unsafe_get a i)
  done

let zero_into (dst : el) =
  for i = 0 to Array.length dst - 1 do
    Array.unsafe_set dst i 0
  done

let one_into ctx dst = copy_into dst ctx.one_m

let is_zero (a : el) =
  let bits = ref 0 in
  for i = 0 to Array.length a - 1 do
    bits := !bits lor Array.unsafe_get a i
  done;
  !bits = 0

let equal (a : el) (b : el) =
  let diff = ref 0 in
  for i = 0 to Array.length a - 1 do
    diff := !diff lor (Array.unsafe_get a i lxor Array.unsafe_get b i)
  done;
  !diff = 0

(* magnitude compare of the low n limbs of [t] against p *)
let geq_p ctx (t : el) =
  let i = ref (ctx.n - 1) in
  while !i >= 0 && Array.unsafe_get t !i = Array.unsafe_get ctx.p !i do
    decr i
  done;
  !i < 0 || Array.unsafe_get t !i > Array.unsafe_get ctx.p !i

(* dst ← t − p over n limbs ([dst] may be [t]); returns the final borrow *)
let sub_p ctx (dst : el) (t : el) =
  let borrow = ref 0 in
  for i = 0 to ctx.n - 1 do
    let s = Array.unsafe_get t i - Array.unsafe_get ctx.p i - !borrow in
    Array.unsafe_set dst i (s land mask);
    borrow := -(s asr limb_bits)
  done;
  !borrow

(* FIOS Montgomery multiplication: each outer step adds a_i·b and m·p in
   one pass and shifts the accumulator down a limb, so t stays n+1 limbs.
   Inputs < p keep t < 2p (t.(n) ≤ 1): one conditional subtraction, whose
   final borrow cancels a set t.(n), brings it below p. *)
let mul_loop ctx (dst : el) (a : el) (b : el) =
  let n = ctx.n and p = ctx.p and p0inv = ctx.p0inv and t = Domain.DLS.get ctx.acc in
  for j = 0 to n do
    Array.unsafe_set t j 0
  done;
  for i = 0 to n - 1 do
    let ai = Array.unsafe_get a i in
    let s = Array.unsafe_get t 0 + (ai * Array.unsafe_get b 0) in
    let m = s * p0inv land mask in
    let c = ref ((s + (m * Array.unsafe_get p 0)) lsr limb_bits) in
    for j = 1 to n - 1 do
      let s =
        Array.unsafe_get t j + (ai * Array.unsafe_get b j) + (m * Array.unsafe_get p j) + !c
      in
      Array.unsafe_set t (j - 1) (s land mask);
      c := s lsr limb_bits
    done;
    let s = Array.unsafe_get t n + !c in
    Array.unsafe_set t (n - 1) (s land mask);
    Array.unsafe_set t n (s lsr limb_bits)
  done;
  if Array.unsafe_get t n <> 0 || geq_p ctx t then ignore (sub_p ctx dst t)
  else
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (Array.unsafe_get t i)
    done

(* the limb counts here must be the ones lib/pairing/dune generates *)
let mul_into ctx dst a b =
  Tel.Counter.inc ctx.c_mul;
  match ctx.n with
  | 8 -> Mont_kernels.mul8 ctx.p ctx.p0inv dst a b
  | 3 -> Mont_kernels.mul3 ctx.p ctx.p0inv dst a b
  | _ -> mul_loop ctx dst a b

let add_loop ctx (dst : el) (a : el) (b : el) =
  let c = ref 0 in
  for i = 0 to ctx.n - 1 do
    let s = Array.unsafe_get a i + Array.unsafe_get b i + !c in
    Array.unsafe_set dst i (s land mask);
    c := s lsr limb_bits
  done;
  if !c <> 0 || geq_p ctx dst then ignore (sub_p ctx dst dst)

let add_into ctx dst a b =
  match ctx.n with
  | 8 -> Mont_kernels.add8 ctx.p dst a b
  | 3 -> Mont_kernels.add3 ctx.p dst a b
  | _ -> add_loop ctx dst a b

let sub_loop ctx (dst : el) (a : el) (b : el) =
  let borrow = ref 0 in
  for i = 0 to ctx.n - 1 do
    let s = Array.unsafe_get a i - Array.unsafe_get b i - !borrow in
    Array.unsafe_set dst i (s land mask);
    borrow := -(s asr limb_bits)
  done;
  if !borrow <> 0 then begin
    (* went negative: add p back (the final carry cancels the borrow) *)
    let c = ref 0 in
    for i = 0 to ctx.n - 1 do
      let s = Array.unsafe_get dst i + Array.unsafe_get ctx.p i + !c in
      Array.unsafe_set dst i (s land mask);
      c := s lsr limb_bits
    done
  end

let sub_into ctx dst a b =
  match ctx.n with
  | 8 -> Mont_kernels.sub8 ctx.p dst a b
  | 3 -> Mont_kernels.sub3 ctx.p dst a b
  | _ -> sub_loop ctx dst a b

let neg_into ctx dst a = sub_into ctx dst ctx.zero_c a

(* v = a·k is n limbs plus a top word and below 12p; subtracting q·p for
   q = [quotient_estimate] leaves it below 2p, and one conditional
   subtraction finishes *)
let mul_small_loop ctx (dst : el) (a : el) k =
  let n = ctx.n in
  let c = ref 0 in
  for i = 0 to n - 1 do
    let s = (Array.unsafe_get a i * k) + !c in
    Array.unsafe_set dst i (s land mask);
    c := s lsr limb_bits
  done;
  let hi = !c in
  let q =
    quotient_estimate ctx
      (top30 ~top_bits:ctx.top_bits hi (Array.unsafe_get dst (n - 1))
         (if n > 1 then Array.unsafe_get dst (n - 2) else 0))
  in
  let borrow = ref 0 in
  for i = 0 to n - 1 do
    let s = Array.unsafe_get dst i - (q * Array.unsafe_get ctx.p i) + !borrow in
    Array.unsafe_set dst i (s land mask);
    borrow := s asr limb_bits
  done;
  if hi + !borrow > 0 || geq_p ctx dst then ignore (sub_p ctx dst dst)

let mul_small_into ctx dst a k =
  if k < 0 || k > 12 then invalid_arg "Mont.mul_small";
  match ctx.n with
  | 8 -> Mont_kernels.mul_small8 ctx.p ctx.top_bits ctx.p_recip dst a k
  | 3 -> Mont_kernels.mul_small3 ctx.p ctx.top_bits ctx.p_recip dst a k
  | _ -> mul_small_loop ctx dst a k

(* MSB-first square-and-multiply; the exponent is a plain Bigint (not in
   Montgomery form). [a] is read throughout, so a [dst] that is [a] works
   on a copy of it. *)
let pow_into ctx dst a e =
  if Bigint.sign e < 0 then invalid_arg "Mont.pow: negative exponent";
  let nb = Bigint.numbits e in
  if nb = 0 then one_into ctx dst
  else begin
    let a = if dst == a then Array.copy a else a in
    copy_into dst a;
    for i = nb - 2 downto 0 do
      mul_into ctx dst dst dst;
      if Bigint.testbit e i then mul_into ctx dst dst a
    done
  end

let inv_into ctx dst a =
  if is_zero a then raise Division_by_zero;
  pow_into ctx dst a ctx.pm2

(* Montgomery's trick: one inversion of the product, then 2 multiplications
   per element to peel it apart *)
let inv_all ctx (els : el array) =
  let k = Array.length els in
  if k > 0 then begin
    (* prefix.(j) = e₀⋯e_j *)
    let prefix = Array.init k (fun _ -> zero ctx) in
    copy_into prefix.(0) els.(0);
    for j = 1 to k - 1 do
      mul_into ctx prefix.(j) prefix.(j - 1) els.(j)
    done;
    (* u = 1/(e₀⋯e_j) as j walks down *)
    let u = zero ctx in
    inv_into ctx u prefix.(k - 1);
    for j = k - 1 downto 1 do
      mul_into ctx prefix.(j) u prefix.(j - 1);
      mul_into ctx u u els.(j);
      copy_into els.(j) prefix.(j)
    done;
    copy_into els.(0) u
  end

(* for p ≡ 3 (mod 4), a^((p+1)/4) squares to a exactly when a is a square *)
let sqrt_into ctx dst a =
  if not (Bigint.testbit ctx.p_big 1) then invalid_arg "Mont.sqrt: modulus must be 3 mod 4";
  let a = if dst == a then Array.copy a else a in
  pow_into ctx dst a ctx.sqrt_exp;
  let r2 = zero ctx in
  mul_into ctx r2 dst dst;
  equal r2 a

(* for p ≡ 2 (mod 3), cubing is a bijection of F_p and a^((2p−1)/3) is
   its inverse: (a^((2p−1)/3))³ = a^(p−1)·a = a *)
let cbrt_into ctx dst a =
  match ctx.cbrt_exp with
  | Some e -> pow_into ctx dst a e
  | None -> invalid_arg "Mont.cbrt: modulus must be 2 mod 3"

(* The Jacobi symbol (a | b) for odd b of one word, by Euclid: strip twos
   from a (each flips the sign when b ≡ ±3 mod 8), swap by reciprocity (a
   flip when both are 3 mod 4), reduce. *)
let rec jacobi_word a b sign =
  if a = 0 then if b = 1 then sign else 0
  else begin
    let k = ref 0 in
    while (a lsr !k) land 1 = 0 do
      incr k
    done;
    let a = a lsr !k and r = b land 7 in
    let sign = if !k land 1 = 1 && (r = 3 || r = 5) then -sign else sign in
    let sign = if a land 3 = 3 && b land 3 = 3 then -sign else sign in
    jacobi_word (b mod a) a sign
  end

(* The binary Jacobi algorithm, on the limbs paired into 60-bit words so
   it costs no multiplication, until both values fit one word: strip twos
   from a (a whole word is 60 of them, an even number), order a ≥ b by
   reciprocity, then a ← a − b, over the words up to the top one. b
   starts as p. The element holds a·R, and χ(R) = 1 since R = 2^(30n) is
   a square, so the symbol of the limbs is the element's. *)
let legendre ctx (x : el) =
  let bits = 2 * limb_bits in
  let wmask = (1 lsl bits) - 1 in
  let words (v : el) =
    Array.init ((ctx.n + 1) / 2) (fun i ->
        v.(2 * i) lor if (2 * i) + 1 < ctx.n then v.((2 * i) + 1) lsl limb_bits else 0)
  in
  let a = ref (words x) and b = ref (words ctx.p) and sign = ref 1 in
  let top = ref (Array.length !a - 1) in
  let trim () =
    while !top > 0 && !a.(!top) = 0 && !b.(!top) = 0 do
      decr top
    done
  in
  let nonzero v =
    let r = ref false in
    for i = 0 to !top do
      if v.(i) <> 0 then r := true
    done;
    !r
  in
  let less v w =
    let i = ref !top in
    while !i > 0 && v.(!i) = w.(!i) do
      decr i
    done;
    v.(!i) < w.(!i)
  in
  trim ();
  while !top > 0 && nonzero !a do
    let v = !a and t = !top in
    while v.(0) = 0 do
      Array.blit v 1 v 0 t;
      v.(t) <- 0
    done;
    let k = ref 0 in
    while (v.(0) lsr !k) land 1 = 0 do
      incr k
    done;
    if !k > 0 then begin
      let k = !k in
      for i = 0 to t - 1 do
        v.(i) <- (v.(i) lsr k) lor ((v.(i + 1) lsl (bits - k)) land wmask)
      done;
      v.(t) <- v.(t) lsr k;
      let r = !b.(0) land 7 in
      if k land 1 = 1 && (r = 3 || r = 5) then sign := - !sign
    end;
    if less v !b then begin
      a := !b;
      b := v;
      if !a.(0) land 3 = 3 && v.(0) land 3 = 3 then sign := - !sign
    end;
    let v = !a and w = !b and borrow = ref 0 in
    for i = 0 to t do
      let d = v.(i) - w.(i) + !borrow in
      v.(i) <- d land wmask;
      borrow := d asr bits
    done;
    trim ()
  done;
  (* a = 0 with b over a word: gcd(x, p) > 1 *)
  if !top > 0 then 0 else jacobi_word !a.(0) !b.(0) !sign

let mul ctx a b = let r = zero ctx in mul_into ctx r a b; r
let sqr ctx a = mul ctx a a
let add ctx a b = let r = zero ctx in add_into ctx r a b; r
let sub ctx a b = let r = zero ctx in sub_into ctx r a b; r
let neg ctx a = let r = zero ctx in neg_into ctx r a; r
let mul_small ctx a k = let r = zero ctx in mul_small_into ctx r a k; r
let pow ctx a e = let r = zero ctx in pow_into ctx r a e; r
let inv ctx a = let r = zero ctx in inv_into ctx r a; r
let sqrt ctx a = let r = zero ctx in if sqrt_into ctx r a then Some r else None
let cbrt ctx a = let r = zero ctx in cbrt_into ctx r a; r

let of_bigint ctx x =
  let x =
    if Bigint.sign x < 0 || Bigint.compare x ctx.p_big >= 0 then Bigint.rem x ctx.p_big else x
  in
  let r = limbs_of_bigint ctx.n x in
  mul_into ctx r r ctx.r2;
  r

let to_bigint ctx a =
  let r = mul ctx a ctx.one_raw in
  let len = ((ctx.n * limb_bits) + bigint_limb_bits - 1) / bigint_limb_bits in
  Bigint.of_limbs (repack ~src_bits:limb_bits ~dst_bits:bigint_limb_bits r len)

(* ---- F_p² = F_p[i]/(i² + 1), components in Montgomery form ----

   Mirrors [Fp2] exactly (same Karatsuba 3-mult product, same inversion by
   the norm) so the Miller loop can stay in Montgomery form end to end.
   The in-place products take their temporaries from a [scratch] the
   caller owns. *)
module F2 = struct
  (* base-field operations, aliased before the names below shadow them *)
  let el_add = add_into
  and el_sub = sub_into
  and el_mul = mul_into
  and el_neg = neg_into
  and el_zero = zero
  and el_copy = copy_into
  and el_one = one_into
  and el_is_zero = is_zero
  and el_equal = equal

  type f2 = { re : el; im : el }
  type scratch = { t0 : el; t1 : el; t2 : el; t3 : el }

  let scratch ctx = { t0 = el_zero ctx; t1 = el_zero ctx; t2 = el_zero ctx; t3 = el_zero ctx }
  let zero ctx = { re = el_zero ctx; im = el_zero ctx }
  let is_zero a = el_is_zero a.re && el_is_zero a.im
  let equal a b = el_equal a.re b.re && el_equal a.im b.im

  let copy_into dst a =
    el_copy dst.re a.re;
    el_copy dst.im a.im

  let one_into ctx dst =
    el_one ctx dst.re;
    zero_into dst.im

  let add_into ctx dst a b =
    el_add ctx dst.re a.re b.re;
    el_add ctx dst.im a.im b.im

  let sub_into ctx dst a b =
    el_sub ctx dst.re a.re b.re;
    el_sub ctx dst.im a.im b.im

  let conj_into ctx dst a =
    el_copy dst.re a.re;
    el_neg ctx dst.im a.im

  (* Karatsuba: re = t0 − t1, im = (a.re + a.im)(b.re + b.im) − t0 − t1;
     every input limb is read before [dst] is written *)
  let mul_into ctx s dst a b =
    el_mul ctx s.t0 a.re b.re;
    el_mul ctx s.t1 a.im b.im;
    el_add ctx s.t2 a.re a.im;
    el_add ctx s.t3 b.re b.im;
    el_mul ctx s.t2 s.t2 s.t3;
    el_sub ctx dst.re s.t0 s.t1;
    el_sub ctx s.t2 s.t2 s.t0;
    el_sub ctx dst.im s.t2 s.t1

  (* (re + im)(re − im) + 2·re·im·i *)
  let sqr_into ctx s dst a =
    el_mul ctx s.t0 a.re a.im;
    el_add ctx s.t1 a.re a.im;
    el_sub ctx dst.re a.re a.im;
    el_mul ctx dst.re s.t1 dst.re;
    el_add ctx dst.im s.t0 s.t0

  (* [c] must not be a component of [dst] *)
  let mul_el_into ctx dst a c =
    el_mul ctx dst.re a.re c;
    el_mul ctx dst.im a.im c

  let inv_into ctx s dst a =
    el_mul ctx s.t0 a.re a.re;
    el_mul ctx s.t1 a.im a.im;
    el_add ctx s.t0 s.t0 s.t1;
    inv_into ctx s.t1 s.t0;
    el_mul ctx dst.re a.re s.t1;
    el_mul ctx dst.im a.im s.t1;
    el_neg ctx dst.im dst.im

  (* MSB-first like [pow_into]; a [dst] that shares an array with [a] works
     on a copy of it *)
  let pow_into ctx s dst a e =
    if Bigint.sign e < 0 then invalid_arg "Mont.F2.pow: negative exponent";
    let nb = Bigint.numbits e in
    if nb = 0 then one_into ctx dst
    else begin
      let a =
        if dst.re == a.re || dst.im == a.im then { re = Array.copy a.re; im = Array.copy a.im }
        else a
      in
      copy_into dst a;
      for i = nb - 2 downto 0 do
        sqr_into ctx s dst dst;
        if Bigint.testbit e i then mul_into ctx s dst dst a
      done
    end

  let add ctx a b = let r = zero ctx in add_into ctx r a b; r
  let sub ctx a b = let r = zero ctx in sub_into ctx r a b; r
  let mul ctx a b = let r = zero ctx in mul_into ctx (scratch ctx) r a b; r
  let sqr ctx a = let r = zero ctx in sqr_into ctx (scratch ctx) r a; r
  let mul_el ctx a c = let r = zero ctx in mul_el_into ctx r a c; r
  let inv ctx a = let r = zero ctx in inv_into ctx (scratch ctx) r a; r
  let pow ctx a e = let r = zero ctx in pow_into ctx (scratch ctx) r a e; r
end
