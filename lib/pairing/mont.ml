(* Fixed-width Montgomery arithmetic kernel.

   Elements are flat little-endian arrays of exactly [ctx.n] limbs of 31
   bits, held in Montgomery form (a·R mod p with R = 2^(31n)). 31-bit
   limbs make every partial product fit a native 63-bit OCaml int:
   (2^31−1)² + 2·(2^31−1) = 2^62 − 1, so the CIOS inner loops need no
   overflow handling and no boxing. This is the multiplication that every
   pairing, IBE and BLS operation in the system bottoms out in; the
   generic Bigint + Barrett path in [Field] stays as the reference
   implementation the property tests compare against. *)

module Bigint = Alpenhorn_bigint.Bigint
module Tel = Alpenhorn_telemetry.Telemetry

let limb_bits = 31
let base = 1 lsl limb_bits
let mask = base - 1

type el = int array

type ctx = {
  n : int; (* limb count: ceil(numbits p / 31) *)
  p : int array; (* modulus, n limbs *)
  p0inv : int; (* -p⁻¹ mod 2^31 *)
  r2 : el; (* R² mod p: of_bigint multiplies by this *)
  one_m : el; (* R mod p = Montgomery form of 1 *)
  one_raw : el; (* plain 1; mont-mul by it converts out of Montgomery form *)
  pm2 : Bigint.t; (* p − 2, the Fermat inversion exponent *)
  sqrt_exp : Bigint.t; (* (p + 1)/4, the square-root exponent when p ≡ 3 (mod 4) *)
  p_big : Bigint.t;
  scratch : int array Domain.DLS.key; (* n+2 limbs reused by [mul], one per domain *)
  c_mul : Tel.Counter.t; (* kernel invocations ("pairing.mont_mul") *)
}

(* -p⁻¹ mod 2^31 by Newton's iteration: x ← x(2 − p₀x) doubles the number
   of correct low bits each step; x₀ = p₀ is correct mod 8 for odd p₀. *)
let neg_inv_limb p0 =
  let x = ref p0 in
  for _ = 1 to 5 do
    let t = (2 - (p0 * !x)) land mask in
    x := !x * t land mask
  done;
  (base - !x) land mask

let limbs_of_bigint n x =
  let l = Bigint.to_limbs x in
  if Array.length l > n then invalid_arg "Mont: value wider than modulus";
  let a = Array.make n 0 in
  Array.blit l 0 a 0 (Array.length l);
  a

let create p_big =
  if Bigint.is_even p_big || Bigint.sign p_big <= 0 then
    invalid_arg "Mont.create: modulus must be odd and positive";
  let n = (Bigint.numbits p_big + limb_bits - 1) / limb_bits in
  let p = limbs_of_bigint n p_big in
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
    pm2 = Bigint.sub p_big Bigint.two;
    sqrt_exp = Bigint.shift_right (Bigint.add p_big Bigint.one) 2;
    p_big;
    scratch = Domain.DLS.new_key (fun () -> Array.make (n + 2) 0);
    c_mul = Tel.Counter.v Tel.default "pairing.mont_mul";
  }

let limbs ctx = ctx.n
let zero ctx = Array.make ctx.n 0
let one ctx = Array.copy ctx.one_m

let is_zero a =
  let rec go i = i < 0 || (Array.unsafe_get a i = 0 && go (i - 1)) in
  go (Array.length a - 1)

let equal a b =
  let rec go i = i < 0 || (Array.unsafe_get a i = Array.unsafe_get b i && go (i - 1)) in
  go (Array.length a - 1)

(* magnitude compare of an n-limb buffer against p *)
let geq_p ctx (t : int array) =
  let rec go i =
    if i < 0 then true
    else begin
      let ti = Array.unsafe_get t i and pi = Array.unsafe_get ctx.p i in
      if ti <> pi then ti > pi else go (i - 1)
    end
  in
  go (ctx.n - 1)

(* subtract p in place from an n-limb buffer; returns the final borrow *)
let sub_p_inplace ctx (t : int array) =
  let borrow = ref 0 in
  for i = 0 to ctx.n - 1 do
    let s = Array.unsafe_get t i - Array.unsafe_get ctx.p i - !borrow in
    if s < 0 then begin
      Array.unsafe_set t i (s + base);
      borrow := 1
    end
    else begin
      Array.unsafe_set t i s;
      borrow := 0
    end
  done;
  !borrow

(* CIOS Montgomery multiplication: interleaves the schoolbook product with
   per-word Montgomery reduction, keeping the accumulator at n+2 limbs.
   Inputs < p, output < p (one conditional final subtraction). *)
let mul ctx a b =
  Tel.Counter.inc ctx.c_mul;
  let n = ctx.n and p = ctx.p and p0inv = ctx.p0inv and t = Domain.DLS.get ctx.scratch in
  Array.fill t 0 (n + 2) 0;
  for i = 0 to n - 1 do
    let ai = Array.unsafe_get a i in
    (* t += ai · b *)
    let c = ref 0 in
    for j = 0 to n - 1 do
      let s = Array.unsafe_get t j + (ai * Array.unsafe_get b j) + !c in
      Array.unsafe_set t j (s land mask);
      c := s lsr limb_bits
    done;
    let s = Array.unsafe_get t n + !c in
    Array.unsafe_set t n (s land mask);
    Array.unsafe_set t (n + 1) (s lsr limb_bits);
    (* t := (t + m·p) / 2^31  with m chosen so t becomes divisible *)
    let m = Array.unsafe_get t 0 * p0inv land mask in
    let c = ref ((Array.unsafe_get t 0 + (m * Array.unsafe_get p 0)) lsr limb_bits) in
    for j = 1 to n - 1 do
      let s = Array.unsafe_get t j + (m * Array.unsafe_get p j) + !c in
      Array.unsafe_set t (j - 1) (s land mask);
      c := s lsr limb_bits
    done;
    let s = Array.unsafe_get t n + !c in
    Array.unsafe_set t (n - 1) (s land mask);
    Array.unsafe_set t n (Array.unsafe_get t (n + 1) + (s lsr limb_bits));
    Array.unsafe_set t (n + 1) 0
  done;
  (* t < 2p, so at most one subtraction; a set t.(n) bit is cancelled by
     the final borrow *)
  let r = Array.make n 0 in
  if t.(n) = 1 || geq_p ctx t then ignore (sub_p_inplace ctx t);
  Array.blit t 0 r 0 n;
  r

let sqr ctx a = mul ctx a a

let add ctx a b =
  let n = ctx.n in
  let r = Array.make n 0 in
  let c = ref 0 in
  for i = 0 to n - 1 do
    let s = Array.unsafe_get a i + Array.unsafe_get b i + !c in
    Array.unsafe_set r i (s land mask);
    c := s lsr limb_bits
  done;
  if !c = 1 || geq_p ctx r then ignore (sub_p_inplace ctx r);
  r

let sub ctx a b =
  let n = ctx.n in
  let r = Array.make n 0 in
  let borrow = ref 0 in
  for i = 0 to n - 1 do
    let s = Array.unsafe_get a i - Array.unsafe_get b i - !borrow in
    if s < 0 then begin
      Array.unsafe_set r i (s + base);
      borrow := 1
    end
    else begin
      Array.unsafe_set r i s;
      borrow := 0
    end
  done;
  if !borrow = 1 then begin
    (* went negative: add p back (final carry cancels the borrow) *)
    let c = ref 0 in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get r i + Array.unsafe_get ctx.p i + !c in
      Array.unsafe_set r i (s land mask);
      c := s lsr limb_bits
    done
  end;
  r

let neg ctx a = if is_zero a then Array.copy a else sub ctx (zero ctx) a

(* a·k for a small non-negative int k (curve formulas use k ≤ 12): extend
   to n+1 limbs then subtract p until in range — at most k iterations. *)
let mul_small ctx a k =
  if k < 0 || k >= base then invalid_arg "Mont.mul_small";
  if k = 0 then zero ctx
  else begin
    let n = ctx.n in
    let r = Array.make n 0 in
    let c = ref 0 in
    for i = 0 to n - 1 do
      let s = (Array.unsafe_get a i * k) + !c in
      Array.unsafe_set r i (s land mask);
      c := s lsr limb_bits
    done;
    let hi = ref !c in
    while !hi > 0 || geq_p ctx r do
      hi := !hi - sub_p_inplace ctx r
    done;
    r
  end

let of_bigint ctx x =
  let x =
    if Bigint.sign x < 0 || Bigint.compare x ctx.p_big >= 0 then Bigint.rem x ctx.p_big else x
  in
  mul ctx (limbs_of_bigint ctx.n x) ctx.r2

let to_bigint ctx a = Bigint.of_limbs (mul ctx a ctx.one_raw)

(* LSB-first square-and-multiply; exponent is a plain Bigint (not in
   Montgomery form). *)
let pow ctx a e =
  if Bigint.sign e < 0 then invalid_arg "Mont.pow: negative exponent";
  let nb = Bigint.numbits e in
  let acc = ref (one ctx) and b = ref a in
  for i = 0 to nb - 1 do
    if Bigint.testbit e i then acc := mul ctx !acc !b;
    if i < nb - 1 then b := sqr ctx !b
  done;
  !acc

let inv ctx a =
  if is_zero a then raise Division_by_zero;
  pow ctx a ctx.pm2

(* for p ≡ 3 (mod 4), a^((p+1)/4) squares to a exactly when a is a square *)
let sqrt ctx a =
  if not (Bigint.testbit ctx.p_big 1) then invalid_arg "Mont.sqrt: modulus must be 3 mod 4";
  let r = pow ctx a ctx.sqrt_exp in
  if equal (sqr ctx r) a then Some r else None

(* ---- F_p² = F_p[i]/(i² + 1), components in Montgomery form ----

   Mirrors [Fp2] exactly (same Karatsuba 3-mult product, same inversion by
   the norm) so the Miller loop can stay in Montgomery form end to end. *)
module F2 = struct
  (* base-field operations, aliased before the names below shadow them *)
  let el_add = add
  and el_sub = sub
  and el_mul = mul
  and el_zero = zero
  and el_one = one
  and el_neg = neg
  and el_inv = inv
  and el_is_zero = is_zero
  and el_equal = equal

  type f2 = { re : el; im : el }

  let zero ctx = { re = el_zero ctx; im = el_zero ctx }
  let one ctx = { re = el_one ctx; im = el_zero ctx }
  let of_el ctx a = { re = a; im = el_zero ctx }
  let is_zero a = el_is_zero a.re && el_is_zero a.im
  let equal a b = el_equal a.re b.re && el_equal a.im b.im

  let add ctx a b = { re = el_add ctx a.re b.re; im = el_add ctx a.im b.im }
  let sub ctx a b = { re = el_sub ctx a.re b.re; im = el_sub ctx a.im b.im }
  let neg ctx a = { re = el_neg ctx a.re; im = el_neg ctx a.im }
  let conj ctx a = { a with im = el_neg ctx a.im }

  (* subtract a base-field element (touches only the real component) *)
  let sub_el ctx a c = { a with re = el_sub ctx a.re c }

  let mul ctx a b =
    let t0 = el_mul ctx a.re b.re in
    let t1 = el_mul ctx a.im b.im in
    let t2 = el_mul ctx (el_add ctx a.re a.im) (el_add ctx b.re b.im) in
    { re = el_sub ctx t0 t1; im = el_sub ctx (el_sub ctx t2 t0) t1 }

  let sqr ctx a =
    let t0 = el_mul ctx (el_add ctx a.re a.im) (el_sub ctx a.re a.im) in
    let t1 = el_mul ctx a.re a.im in
    { re = t0; im = el_add ctx t1 t1 }

  let mul_el ctx a c = { re = el_mul ctx a.re c; im = el_mul ctx a.im c }

  let inv ctx a =
    let norm = el_add ctx (el_mul ctx a.re a.re) (el_mul ctx a.im a.im) in
    let ninv = el_inv ctx norm in
    { re = el_mul ctx a.re ninv; im = el_neg ctx (el_mul ctx a.im ninv) }

  let pow ctx a e =
    if Bigint.sign e < 0 then invalid_arg "Mont.F2.pow: negative exponent";
    let nb = Bigint.numbits e in
    let acc = ref (one ctx) and b = ref a in
    for i = 0 to nb - 1 do
      if Bigint.testbit e i then acc := mul ctx !acc !b;
      if i < nb - 1 then b := sqr ctx !b
    done;
    !acc
end
