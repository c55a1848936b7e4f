module Bigint = Alpenhorn_bigint.Bigint
module Tel = Alpenhorn_telemetry.Telemetry

type gt = Mont.F2.f2

(* ---- the affine reference ----

   The Miller loop on Bigint affine points [Some (x, y)] ([None] is O)
   and Fp2 values, one inversion per step: what every Montgomery path
   below is property-tested against. *)

(* Evaluate the line through [t] and [u] (tangent if equal) at the distorted
   point (xq, yq) ∈ F_p², and the vertical line at [t + u]. Returns
   (l, v, t_plus_u). Uses the fact that on y² = x³ + 1 two distinct affine
   points never share a y-coordinate (x ↦ x³ is a bijection), so line
   evaluations at distorted points are never zero. *)
let line_and_add fp t u ~xq ~yq =
  match (t, u) with
  | None, None -> (Fp2.one, Fp2.one, None)
  | None, Some (x, _) | Some (x, _), None ->
    (* vertical line through the affine point *)
    (Fp2.sub fp xq (Fp2.of_fp x), Fp2.one, if t = None then u else t)
  | Some (ax, ay), Some (bx, by) ->
    let tangent = Bigint.equal ax bx && Bigint.equal ay by in
    if Bigint.equal ax bx && (not tangent || Field.is_zero ay) then begin
      (* u = -t (chord is the vertical through t), or t is 2-torsion (the
         tangent at y = 0 is that same vertical); t+u = O so v ≡ 1 *)
      (Fp2.sub fp xq (Fp2.of_fp ax), Fp2.one, None)
    end
    else begin
      let lambda =
        if tangent then
          Field.mul fp (Field.mul_int fp (Field.sqr fp ax) 3) (Field.inv fp (Field.mul_int fp ay 2))
        else Field.mul fp (Field.sub fp by ay) (Field.inv fp (Field.sub fp bx ax))
      in
      let x3 = Field.sub fp (Field.sub fp (Field.sqr fp lambda) ax) bx in
      let y3 = Field.sub fp (Field.mul fp lambda (Field.sub fp ax x3)) ay in
      (* l(Q) = (yq - ay) - λ(xq - ax) *)
      let l =
        Fp2.sub fp (Fp2.sub fp yq (Fp2.of_fp ay)) (Fp2.mul_fp fp (Fp2.sub fp xq (Fp2.of_fp ax)) lambda)
      in
      (l, Fp2.sub fp xq (Fp2.of_fp x3), Some (x3, y3))
    end

let miller (params : Params.t) p ~xq ~yq =
  let fp = params.fp in
  let q = params.q in
  let num = ref Fp2.one and den = ref Fp2.one in
  let t = ref p in
  for i = Bigint.numbits q - 2 downto 0 do
    let l, v, t2 = line_and_add fp !t !t ~xq ~yq in
    num := Fp2.mul fp (Fp2.sqr fp !num) l;
    den := Fp2.mul fp (Fp2.sqr fp !den) v;
    t := t2;
    if Bigint.testbit q i then begin
      let l, v, t2 = line_and_add fp !t p ~xq ~yq in
      num := Fp2.mul fp !num l;
      den := Fp2.mul fp !den v;
      t := t2
    end
  done;
  Fp2.mul fp !num (Fp2.inv fp !den)

let pair_reference (params : Params.t) a b =
  let fp = params.fp in
  match (Curve.coords fp a, Curve.coords fp b) with
  | None, _ | _, None -> invalid_arg "Pairing.pair: point at infinity"
  | a, Some (bx, by) ->
    (* distortion map: Q = (ζ·bx, by) ∈ E(F_p²) *)
    let xq = Fp2.mul_fp fp params.zeta bx in
    let yq = Fp2.of_fp by in
    let f = Fp2.pow fp (miller params a ~xq ~yq) params.tate_exp in
    let ctx = Field.mont_ctx fp in
    { Mont.F2.re = Mont.of_bigint ctx f.re; im = Mont.of_bigint ctx f.im }

(* ---- Montgomery-kernel Miller loop ----

   Same algorithm as [miller], but the first argument is tracked in
   Jacobian coordinates over [Mont] so the loop needs no field inversions,
   and every line/vertical evaluation is scaled by a factor in F_p*
   (powers of Z and small constants). The scaling is free: the final
   exponent is (p² − 1)/q = (p − 1)·12l, and c^(p−1) = 1 for any
   c ∈ F_p*, so every base-field scale factor dies in the final
   exponentiation and [pair] equals [pair_reference] exactly (the
   property tests check this on random inputs). For the same reason one
   accumulator suffices: f ← f²·l·conj(v) instead of num/den, since
   v·conj(v) = N(v) ∈ F_p*.

   Line formulas, anchored at the affine current point (X/Z², Y/Z³) and
   cleared of denominators:

   - tangent (doubling), scaled by 2y₀Z⁶:
       l = Z3·ZZ·yq − 2Y² − 3X²·(ZZ·xq − X)         with Z3 = 2YZ
   - chord through T and affine P = (px, py), scaled by 2Z³(px − x₀):
       l = Z3·(yq − py) − r·(xq − px)                with r = 2(S2 − Y),
                                                     Z3 = 2ZH
   - vertical at T' = (X', Y', Z'), scaled by Z'²:
       v = Z'²·xq − X'

   The squared Z of the current point is carried alongside (X, Y, Z) so
   each step reuses it instead of re-squaring. Everything runs in place:
   T, the step's line and every temporary are buffers of the chain and of
   one scratch record per Miller loop (or preparation, or prepared
   evaluation), so no step allocates. *)

module M = Mont
module F2 = Mont.F2

(* What a step leaves in its chain, as bits of the tag it returns (and of
   the prepared table's slot tags): [line], the line ly·yq − m·xq + c0
   (ly ≠ 0) in the chain's line buffers; or [vert_line], a line that is
   the vertical tzz·xq − tx through the chain's T after the step; and
   [vertical], the vertical tzz·xq − tx at the new T. Both verticals are
   read off T itself, so only lines need buffers of their own. *)
let line = 1
let vert_line = 2
let vertical = 4

(* the running multiple T of the first argument P = (px, py), Jacobian
   with cached Z² and infinity iff Z = 0, and the last step's line *)
type chain = {
  px : M.el;
  py : M.el;
  tx : M.el;
  ty : M.el;
  tz : M.el;
  tzz : M.el;
  ly : M.el;
  m : M.el;
  c0 : M.el;
}

(* one operation's temporaries: the step formulas' t0–t6, the F_p²
   products' scratch, the accumulator [f] and the factor [l] *)
type scratch = {
  t0 : M.el;
  t1 : M.el;
  t2 : M.el;
  t3 : M.el;
  t4 : M.el;
  t5 : M.el;
  t6 : M.el;
  w : F2.scratch;
  f : F2.f2;
  l : F2.f2;
}

let scratch ctx =
  let el () = M.zero ctx in
  {
    t0 = el ();
    t1 = el ();
    t2 = el ();
    t3 = el ();
    t4 = el ();
    t5 = el ();
    t6 = el ();
    w = F2.scratch ctx;
    f = F2.zero ctx;
    l = F2.zero ctx;
  }

(* the chain only reads [a]'s coordinates *)
let chain_of ctx a =
  let px, py = Curve.mont_coords a in
  {
    px;
    py;
    tx = Array.copy px;
    ty = Array.copy py;
    tz = M.one ctx;
    tzz = M.one ctx;
    ly = M.zero ctx;
    m = M.zero ctx;
    c0 = M.zero ctx;
  }

(* T ← 2T (dbl-2009-l): the tangent at T and the vertical at 2T *)
let dbl_step ctx s t =
  if M.is_zero t.tz then 0
  else if M.is_zero t.ty then begin
    (* 2-torsion: the tangent at y = 0 is the vertical through T; 2T = O *)
    M.zero_into t.tz;
    vert_line
  end
  else begin
    let x = t.tx and y = t.ty and z = t.tz and zz = t.tzz in
    M.mul_into ctx s.t0 x x (* A = X² *);
    M.mul_into ctx s.t1 y y (* B = Y² *);
    M.mul_into ctx s.t2 s.t1 s.t1 (* C = B² *);
    (* D = 2((X + B)² − A − C), E = 3A *)
    M.add_into ctx s.t3 x s.t1;
    M.mul_into ctx s.t3 s.t3 s.t3;
    M.sub_into ctx s.t3 s.t3 s.t0;
    M.sub_into ctx s.t3 s.t3 s.t2;
    M.mul_small_into ctx s.t3 s.t3 2;
    M.mul_small_into ctx s.t4 s.t0 3;
    (* the tangent: c0 = E·X − 2B, m = E·ZZ, ly = Z3·ZZ with Z3 = 2YZ *)
    M.mul_into ctx s.t5 s.t4 x;
    M.mul_small_into ctx s.t6 s.t1 2;
    M.sub_into ctx t.c0 s.t5 s.t6;
    M.mul_into ctx t.m s.t4 zz;
    M.mul_into ctx z y z;
    M.mul_small_into ctx z z 2;
    M.mul_into ctx t.ly z zz;
    (* X3 = E² − 2D, Y3 = E(D − X3) − 8C, ZZ3 = Z3² *)
    M.mul_into ctx s.t5 s.t4 s.t4;
    M.mul_small_into ctx s.t6 s.t3 2;
    M.sub_into ctx x s.t5 s.t6;
    M.sub_into ctx s.t3 s.t3 x;
    M.mul_into ctx s.t3 s.t4 s.t3;
    M.mul_small_into ctx s.t2 s.t2 8;
    M.sub_into ctx y s.t3 s.t2;
    M.mul_into ctx zz z z;
    line lor vertical
  end

(* T ← T + P (madd-2007-bl): the chord through T and P and the vertical
   at T + P *)
let add_step ctx s t =
  if M.is_zero t.tz then begin
    (* O + P = P; the "line" is the vertical through P *)
    M.copy_into t.tx t.px;
    M.copy_into t.ty t.py;
    M.one_into ctx t.tz;
    M.one_into ctx t.tzz;
    vert_line
  end
  else begin
    let x = t.tx and y = t.ty and z = t.tz and zz = t.tzz in
    M.mul_into ctx s.t0 t.px zz (* U2 *);
    M.mul_into ctx s.t1 z zz;
    M.mul_into ctx s.t1 t.py s.t1 (* S2 *);
    if M.equal s.t0 x then begin
      if M.equal s.t1 y then dbl_step ctx s t
      else begin
        (* P = −T: the chord is the vertical through T; T + P = O *)
        M.zero_into z;
        vert_line
      end
    end
    else begin
      (* H = U2 − X, HH = H², I = 4HH, J = H·I, r = 2(S2 − Y), V = X·I *)
      M.sub_into ctx s.t0 s.t0 x;
      M.mul_into ctx s.t2 s.t0 s.t0;
      M.mul_small_into ctx s.t3 s.t2 4;
      M.mul_into ctx s.t4 s.t0 s.t3;
      M.sub_into ctx s.t1 s.t1 y;
      M.mul_small_into ctx t.m s.t1 2;
      M.mul_into ctx s.t3 x s.t3;
      (* X3 = r² − J − 2V, Y3 = r(V − X3) − 2Y·J *)
      M.mul_into ctx s.t5 t.m t.m;
      M.sub_into ctx s.t5 s.t5 s.t4;
      M.mul_small_into ctx s.t6 s.t3 2;
      M.sub_into ctx x s.t5 s.t6;
      M.sub_into ctx s.t3 s.t3 x;
      M.mul_into ctx s.t3 t.m s.t3;
      M.mul_into ctx s.t4 y s.t4;
      M.mul_small_into ctx s.t4 s.t4 2;
      M.sub_into ctx y s.t3 s.t4;
      (* Z3 = (Z + H)² − ZZ − HH, ZZ3 = Z3² *)
      M.add_into ctx z z s.t0;
      M.mul_into ctx z z z;
      M.sub_into ctx z z zz;
      M.sub_into ctx z z s.t2;
      M.mul_into ctx zz z z;
      (* the chord: ly = Z3, m = r, c0 = r·px − Z3·py *)
      M.copy_into t.ly z;
      M.mul_into ctx t.c0 t.m t.px;
      M.mul_into ctx s.t5 z t.py;
      M.sub_into ctx t.c0 t.c0 s.t5;
      line lor vertical
    end
  end

(* Miller's schedule for q, below the top bit: a doubling per bit, then an
   addition where the bit is set *)
let iter_schedule q ~dbl ~add =
  for i = Bigint.numbits q - 2 downto 0 do
    dbl ();
    if Bigint.testbit q i then add ()
  done

(* the distorted second argument Q = φ(b) = (ζ·bx, by), with −xq kept for
   the lines' −m·xq term; yq lies in F_p *)
type point2 = { xq : F2.f2; nxq : F2.f2; yq : M.el }

let distort (params : Params.t) ctx b =
  let bx, by = Curve.mont_coords b in
  let zeta = (Params.consts params).zeta_m in
  let xq = F2.mul_el ctx zeta bx in
  { xq; nxq = { re = M.neg ctx xq.re; im = M.neg ctx xq.im }; yq = by }

(* f ← f·l(Q)·conj(v(Q)) for the factors a step left in [t] *)
let absorb ctx s q t tag =
  let l = s.l in
  if tag land line <> 0 then begin
    (* ly·yq + c0 − m·xq *)
    M.mul_into ctx l.re t.ly q.yq;
    M.add_into ctx l.re l.re t.c0;
    M.mul_into ctx l.im t.m q.nxq.re;
    M.add_into ctx l.re l.re l.im;
    M.mul_into ctx l.im t.m q.nxq.im;
    F2.mul_into ctx s.w s.f s.f l
  end;
  if tag land (vert_line lor vertical) <> 0 then begin
    (* tzz·xq − tx, conjugated when it is the step's vertical *)
    M.mul_into ctx l.re q.xq.re t.tzz;
    M.sub_into ctx l.re l.re t.tx;
    M.mul_into ctx l.im q.xq.im t.tzz;
    if tag land vertical <> 0 then M.neg_into ctx l.im l.im;
    F2.mul_into ctx s.w s.f s.f l
  end

(* Π f_{q,a_i}(φ(b_i)) up to F_p* factors, into [s.f]: every pair's chain
   steps in lockstep over one accumulator, so the accumulator squarings
   are paid once per iteration for all pairs (f ← f²·Π l_i·conj v_i) *)
let miller_product (params : Params.t) ctx s pairs =
  let dbl (t, q) = absorb ctx s q t (dbl_step ctx s t)
  and add (t, q) = absorb ctx s q t (add_step ctx s t) in
  F2.one_into ctx s.f;
  iter_schedule params.q
    ~dbl:(fun () ->
      F2.sqr_into ctx s.w s.f s.f;
      List.iter dbl pairs)
    ~add:(fun () -> List.iter add pairs)

(* dst ← f^((p²−1)/q) = (f^(p−1))^(12l), overwriting [f]. Frobenius on
   F_p² = F_p[i] is conjugation, since p ≡ 3 (mod 4) makes i^p = −i, so
   f^(p−1) = conj(f)/f = conj(f)²/N(f) with N(f) = f·conj(f) ∈ F_p: one
   base-field inversion and a power of bit length |12l| replace the
   (p²−1)/q-bit power. *)
let final_exp_into (params : Params.t) ctx s dst (f : F2.f2) =
  M.mul_into ctx s.t0 f.re f.re;
  M.mul_into ctx s.t1 f.im f.im;
  M.add_into ctx s.t0 s.t0 s.t1;
  M.inv_into ctx s.t1 s.t0;
  F2.conj_into ctx f f;
  F2.sqr_into ctx s.w f f;
  F2.mul_el_into ctx f f s.t1;
  F2.pow_into ctx s.w dst f params.cofactor

let final_exp (params : Params.t) f =
  let ctx = Field.mont_ctx params.fp in
  let s = scratch ctx and r = F2.zero ctx in
  F2.copy_into s.f f;
  final_exp_into params ctx s r s.f;
  r

(* Π e(a_i, b_i): the Miller loops share one accumulator and the product
   takes a single final exponentiation, valid because the final powering
   is a homomorphism of F_p²*. The loop leaves [s.f]; the factor buffer
   [s.l], of this call's own scratch, takes the result. *)
let pair_product (params : Params.t) pairs =
  let ctx = Field.mont_ctx params.fp in
  let s = scratch ctx in
  miller_product params ctx s
    (List.map
       (fun (a, b) ->
         if Curve.is_infinity a || Curve.is_infinity b then invalid_arg "Pairing.pair: point at infinity";
         (chain_of ctx a, distort params ctx b))
       pairs);
  final_exp_into params ctx s s.l s.f;
  s.l

let pair params a b = pair_product params [ (a, b) ]

(* ---- prepared first argument ----

   A mailbox scan pairs every ciphertext's U with the same identity key,
   so T's chain of multiples — and with it every line of the Miller loop —
   is the same for each ciphertext; only the second argument changes.
   Preparation runs the chain once and divides each line by its leading
   coefficient, with one batch inversion for the whole chain: lines
   become yq + b·xq + c. The divisors lie in F_p* and die in the final
   exponent like the Jacobian scalings.

   The chain also tells whether the key lies in G1: it ends at q·a, which
   is O (Z = 0) exactly then. Only a G1 key is prepared: it evaluates the
   lines at the trace-zero point (see [trace_zero] below), where every
   vertical lies in F_p* and is dropped, so the table holds no verticals.

   Everything lives in one flat int array, n = limb count:
   - the table, one [1 + 2n]-int slot per step: the step's tag, then b and
     c when the step has a line;
   - after it, the batch inversion's work area: one [2n] entry per line in
     step order, holding its leading coefficient and the product of all
     coefficients up to it.
   Keeping the whole chain in the array rather than in boxed per-step
   values is what keeps a scan from promoting them to the major heap. The
   array decrypts exactly as the key does, so it is a per-domain buffer
   borrowed for one [with_prepared] scope and zeroed on release. *)

type prepared = { prep_params : Params.t; table : int array; mutable live : bool }

let slot_words n = 1 + (2 * n)

let steps (params : Params.t) =
  let k = ref 0 in
  iter_schedule params.q ~dbl:(fun () -> incr k) ~add:(fun () -> incr k);
  !k

let load buf off (dst : M.el) =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- buf.(off + i)
  done

let store buf off (src : M.el) =
  for i = 0 to Array.length src - 1 do
    buf.(off + i) <- src.(i)
  done

(* fills [buf] and returns whether T = q·a is O *)
let prepare_into (params : Params.t) ctx a buf =
  let n = M.limbs ctx in
  let work = steps params * slot_words n in
  let s = scratch ctx and t = chain_of ctx a in
  (* forward: run the chain, storing each line's numerators in its slot,
     and its leading coefficient with their running product in the work
     area *)
  let prod = M.one ctx in
  let slot = ref 0 and lines = ref 0 in
  let record tag =
    buf.(!slot) <- tag;
    if tag land line <> 0 then begin
      let w = work + (!lines * 2 * n) in
      store buf (!slot + 1) t.m;
      store buf (!slot + 1 + n) t.c0;
      M.mul_into ctx prod prod t.ly;
      store buf w t.ly;
      store buf (w + n) prod;
      incr lines
    end;
    slot := !slot + slot_words n
  in
  iter_schedule params.q
    ~dbl:(fun () -> record (dbl_step ctx s t))
    ~add:(fun () -> record (add_step ctx s t));
  (* backward: u = 1/(ly_0⋯ly_j) peels one coefficient per line
     (Montgomery's trick, on the flat work area: [Mont.inv_all] would box
     every coefficient, and its arrays of a few hundred go straight to the
     major heap), normalising b = −m/ly and c = c0/ly in place *)
  let u = M.zero ctx and inv = M.zero ctx and c = M.zero ctx in
  M.inv_into ctx u prod;
  let scale ?(negate = false) off =
    load buf off c;
    M.mul_into ctx c c inv;
    if negate then M.neg_into ctx c c;
    store buf off c
  in
  while !slot > 0 do
    slot := !slot - slot_words n;
    if buf.(!slot) land line <> 0 then begin
      decr lines;
      let w = work + (!lines * 2 * n) in
      if !lines = 0 then M.copy_into inv u
      else begin
        load buf (w - n) c;
        M.mul_into ctx inv u c
      end;
      load buf w c;
      M.mul_into ctx u u c;
      scale ~negate:true (!slot + 1);
      scale (!slot + 1 + n)
    end
  done;
  M.is_zero t.tz

type borrowed = { mutable buf : int array; mutable busy : bool }

let table_buffer = Domain.DLS.new_key (fun () -> { buf = [||]; busy = false })

let with_prepared (params : Params.t) a f =
  if Curve.is_infinity a then invalid_arg "Pairing.with_prepared: point at infinity";
  let ctx = Field.mont_ctx params.fp in
  let n = M.limbs ctx in
  (* the table, then the work area: per line, its coefficient and the
     running product *)
  let words = steps params * (slot_words n + (2 * n)) in
  let s = Domain.DLS.get table_buffer in
  (* a preparation nested inside another on this domain gets its own buffer *)
  let borrowed = not s.busy in
  let table =
    if not borrowed then Array.make words 0
    else begin
      if Array.length s.buf < words then s.buf <- Array.make words 0;
      s.busy <- true;
      s.buf
    end
  in
  let prep = { prep_params = params; table; live = true } in
  Fun.protect
    ~finally:(fun () ->
      prep.live <- false;
      Array.fill table 0 words 0;
      if borrowed then s.busy <- false)
    (fun () ->
      if not (prepare_into params ctx a table) then
        invalid_arg "Pairing.with_prepared: point outside G1";
      f prep)

let prepared_table prep = prep.table

(* ---- the trace-zero evaluation ----

   Frobenius π fixes a ∈ G1, so the Tate pairing's Galois invariance
   gives e(a, π(Q)) = e(a, Q)^p, and at Q₂ = Q − π(Q) for Q = φ(b):
   e(a, Q₂) = ê(a, b)^(1−p) = ê(a, b)², as p ≡ −1 (mod q). With
   φ(b) = (ζx, y) and π(φ(b)) = (ζ²x, y), the chord has slope −i·L for
   L = y/(ζ_im·x), and
       Q₂ = (x − L², i·L·(x − L² − ζ_re·x)),
   an x in F_p and a y in i·F_p (π(Q₂) = −Q₂). The verticals of the
   chain, xq − x_T, are then in F_p* and die in the final exponent, so
   they are dropped; each line costs one multiplication,
   (b·xq + c) + i·yq, and the F_p² product.

   The Miller value f (up to F_p* factors) gives ê(a, b)² = g^(12l) for
   g = f^(p−1) = conj(f)²/N(f). Of the two roots ±g^(6l), ê(a, b) is the
   one of order q, and (g^(6l))^q = f^((p²−1)/2) = N(f)^((p−1)/2) = χ(N(f)),
   which F_p* factors do not change (χ(c²) = 1), so
       ê(a, b) = χ(N(f))·g^(6l),
   equal to [pair] bit for bit. b = (0, ±1), the points of order 3, make
   Q₂ = O; they pair to 1 with any key in G1. The batch shares the
   inversions of the x and of the norms (Montgomery's trick). *)
let trace_zero prep ctx bs =
  let params = prep.prep_params and tbl = prep.table in
  let tz = Params.consts params in
  let n = M.limbs ctx in
  let s = scratch ctx in
  let f = s.f and l = s.l and b = s.t0 and c = s.t1 and xq = s.t2 and lam = s.t3 in
  let inv_xs = Array.map (fun b -> Array.copy (fst (Curve.mont_coords b))) bs in
  M.inv_all ctx inv_xs;
  (* a line at Q₂ = (xq, i·yq), with yq kept in l.im: (b·xq + c) + i·yq *)
  let base = ref 0 in
  let step () =
    if tbl.(!base) land line <> 0 then begin
      load tbl (!base + 1) b;
      load tbl (!base + 1 + n) c;
      M.mul_into ctx l.re b xq;
      M.add_into ctx l.re l.re c;
      F2.mul_into ctx s.w f f l
    end;
    base := !base + slot_words n
  in
  let fs =
    Array.mapi
      (fun j b ->
        let x, y = Curve.mont_coords b in
        (* L = y/(ζ_im·x); xq = x − L², yq = L·(xq − ζ_re·x) *)
        M.mul_into ctx lam y inv_xs.(j);
        M.mul_into ctx lam lam tz.inv_zeta_im;
        M.mul_into ctx xq lam lam;
        M.sub_into ctx xq x xq;
        M.mul_into ctx s.t4 tz.zeta_m.re x;
        M.sub_into ctx s.t4 xq s.t4;
        M.mul_into ctx l.im lam s.t4;
        F2.one_into ctx f;
        base := 0;
        iter_schedule params.q
          ~dbl:(fun () ->
            F2.sqr_into ctx s.w f f;
            step ())
          ~add:step;
        { F2.re = Array.copy f.re; im = Array.copy f.im })
      bs
  in
  let norms =
    Array.map
      (fun (g : F2.f2) ->
        let nm = M.zero ctx in
        M.mul_into ctx nm g.re g.re;
        M.mul_into ctx s.t4 g.im g.im;
        M.add_into ctx nm nm s.t4;
        nm)
      fs
  in
  let inv_norms = Array.map Array.copy norms in
  M.inv_all ctx inv_norms;
  Array.mapi
    (fun j (g : F2.f2) ->
      (* χ(N(f))·g^(6l) for g = conj(f)²/N(f) *)
      F2.conj_into ctx g g;
      F2.sqr_into ctx s.w g g;
      F2.mul_el_into ctx g g inv_norms.(j);
      F2.pow_into ctx s.w l g tz.half_cofactor;
      if M.legendre ctx norms.(j) < 0 then begin
        M.neg_into ctx l.re l.re;
        M.neg_into ctx l.im l.im
      end;
      { F2.re = Array.copy l.re; im = Array.copy l.im })
    fs

let gt_one (params : Params.t) =
  let ctx = Field.mont_ctx params.fp in
  { F2.re = M.one ctx; im = M.zero ctx }

let pair_batch prep bs =
  if not prep.live then invalid_arg "Pairing.pair_batch: key used after its with_prepared scope";
  Array.iter (fun b -> if Curve.is_infinity b then invalid_arg "Pairing.pair: point at infinity") bs;
  let params = prep.prep_params in
  let order3 b = M.is_zero (fst (Curve.mont_coords b)) in
  let vals = trace_zero prep (Field.mont_ctx params.fp) (Array.of_seq (Seq.filter (fun b -> not (order3 b)) (Array.to_seq bs))) in
  if Array.length vals > 0 then Tel.Counter.add (Tel.Counter.v Tel.default "pairing.prepared_evals") (Array.length vals);
  let next = Seq.to_dispenser (Array.to_seq vals) and one = gt_one params in
  Array.map (fun b -> if order3 b then one else Option.get (next ())) bs

(* ---- fixed-argument pairing cache ----

   IBE encryption pairs every request against the same PKG master key, and
   BLS verification pairs against long-lived signer keys and the fixed
   generator, so within a round the same (a, b) pairs recur constantly.
   The memo is domain-local state inside the parameter set (params are
   process-wide singletons): each domain of the parallel pool fills its own
   cache, so lookups never contend and need no lock.  Bounded by FIFO
   eviction; correctness never depends on it, it is purely a latency
   lever. *)

let pair_cache_capacity = 512

let c_cache_hit = lazy (Tel.Counter.v Tel.default "pairing.cache_hits")
let c_cache_miss = lazy (Tel.Counter.v Tel.default "pairing.cache_misses")
let c_cache_evict = lazy (Tel.Counter.v Tel.default "pairing.cache_evictions")

let warmup (params : Params.t) =
  ignore (Lazy.force c_cache_hit);
  ignore (Lazy.force c_cache_miss);
  ignore (Lazy.force c_cache_evict);
  Params.force_tables params

let pair_cached (params : Params.t) a b =
  let fp = params.fp in
  let cache = Domain.DLS.get params.pair_cache in
  let key = Curve.to_bytes fp a ^ Curve.to_bytes fp b in
  match Hashtbl.find_opt cache.Params.pc_table key with
  | Some gt ->
    Tel.Counter.inc (Lazy.force c_cache_hit);
    gt
  | None ->
    Tel.Counter.inc (Lazy.force c_cache_miss);
    let gt = pair params a b in
    if Hashtbl.length cache.Params.pc_table >= pair_cache_capacity then begin
      match Queue.take_opt cache.Params.pc_fifo with
      | Some oldest ->
        Hashtbl.remove cache.Params.pc_table oldest;
        Tel.Counter.inc (Lazy.force c_cache_evict)
      | None -> ()
    end;
    Hashtbl.replace cache.Params.pc_table key gt;
    Queue.push key cache.Params.pc_fifo;
    gt

let gt_equal = F2.equal

(* the byte boundary: both components leave Montgomery form here *)
let gt_bytes (params : Params.t) (g : gt) =
  let fp = params.fp in
  let ctx = Field.mont_ctx fp in
  Field.to_bytes fp (M.to_bigint ctx g.re) ^ Field.to_bytes fp (M.to_bigint ctx g.im)

let gt_pow (params : Params.t) g e = F2.pow (Field.mont_ctx params.fp) g e

let hash_to_group (params : Params.t) id =
  let fp = params.fp in
  let p = Field.modulus fp and ctx = Field.mont_ctx fp in
  let rec attempt ctr =
    if ctr > 255 then failwith "Pairing.hash_to_group: exhausted"
    else begin
      (* expand the identity to enough bytes for near-uniform y mod p *)
      let need = Field.element_bytes fp + 16 in
      let stream =
        Alpenhorn_crypto.Hmac.hkdf ~info:(Printf.sprintf "alpenhorn-h2g-%d" ctr) ~len:need id
      in
      let y = M.of_bigint ctx (Bigint.rem (Bigint.of_bytes_be stream) p) in
      let y2m1 = M.sqr ctx y in
      M.sub_into ctx y2m1 y2m1 (M.one ctx);
      if M.is_zero y2m1 then attempt (ctr + 1)
      else begin
        let g = Curve.mul fp params.cofactor (Curve.of_mont fp ~x:(M.cbrt ctx y2m1) ~y) in
        if Curve.is_infinity g then attempt (ctr + 1) else g
      end
    end
  in
  attempt 0

let hash_to_scalar (params : Params.t) msg =
  let rec attempt ctr =
    if ctr > 255 then failwith "Pairing.hash_to_scalar: exhausted"
    else begin
      let need = (Bigint.numbits params.q + 7) / 8 + 16 in
      let stream =
        Alpenhorn_crypto.Hmac.hkdf ~info:(Printf.sprintf "alpenhorn-h2s-%d" ctr) ~len:need msg
      in
      let v = Bigint.rem (Bigint.of_bytes_be stream) params.q in
      if Bigint.is_zero v then attempt (ctr + 1) else v
    end
  in
  attempt 0
