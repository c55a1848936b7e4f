module Bigint = Alpenhorn_bigint.Bigint
module Sha256 = Alpenhorn_crypto.Sha256
module Tel = Alpenhorn_telemetry.Telemetry
module Events = Alpenhorn_telemetry.Events

(* Evaluate the line through [t] and [u] (tangent if equal) at the distorted
   point (xq, yq) ∈ F_p², and the vertical line at [t + u]. Returns
   (l, v, t_plus_u). Uses the fact that on y² = x³ + 1 two distinct affine
   points never share a y-coordinate (x ↦ x³ is a bijection), so line
   evaluations at distorted points are never zero. *)
let line_and_add fp t u ~xq ~yq =
  match (t, u) with
  | Curve.Inf, Curve.Inf -> (Fp2.one, Fp2.one, Curve.Inf)
  | Curve.Inf, Curve.Affine a | Curve.Affine a, Curve.Inf ->
    (* vertical line through the affine point *)
    let l = Fp2.sub fp xq (Fp2.of_fp a.x) in
    ((l, Fp2.one, Curve.add fp t u) : Fp2.el * Fp2.el * Curve.point)
  | Curve.Affine a, Curve.Affine b ->
    let tangent = Bigint.equal a.x b.x && Bigint.equal a.y b.y in
    if Bigint.equal a.x b.x && (not tangent || Field.is_zero a.y) then begin
      (* u = -t (chord is the vertical through t), or t is 2-torsion (the
         tangent at y = 0 is that same vertical); t+u = O so v ≡ 1 *)
      (Fp2.sub fp xq (Fp2.of_fp a.x), Fp2.one, Curve.Inf)
    end
    else begin
      let lambda =
        if tangent then
          Field.mul fp (Field.mul_int fp (Field.sqr fp a.x) 3) (Field.inv fp (Field.mul_int fp a.y 2))
        else Field.mul fp (Field.sub fp b.y a.y) (Field.inv fp (Field.sub fp b.x a.x))
      in
      let x3 = Field.sub fp (Field.sub fp (Field.sqr fp lambda) a.x) b.x in
      let y3 = Field.sub fp (Field.mul fp lambda (Field.sub fp a.x x3)) a.y in
      (* l(Q) = (yq - a.y) - λ(xq - a.x) *)
      let l =
        Fp2.sub fp (Fp2.sub fp yq (Fp2.of_fp a.y)) (Fp2.mul_fp fp (Fp2.sub fp xq (Fp2.of_fp a.x)) lambda)
      in
      let v = Fp2.sub fp xq (Fp2.of_fp x3) in
      (l, v, Curve.Affine { x = x3; y = y3 })
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
  match (a, b) with
  | Curve.Inf, _ | _, Curve.Inf -> invalid_arg "Pairing.pair: point at infinity"
  | Curve.Affine _, Curve.Affine { x = bx; y = by } ->
    let fp = params.fp in
    (* distortion map: Q = (ζ·bx, by) ∈ E(F_p²) *)
    let xq = Fp2.mul_fp fp params.zeta bx in
    let yq = Fp2.of_fp by in
    let f = miller params a ~xq ~yq in
    Fp2.pow fp f params.tate_exp

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

let chain_of ctx x y =
  let px = M.of_bigint ctx x and py = M.of_bigint ctx y in
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

let distort (params : Params.t) ctx bx by =
  let bx = M.of_bigint ctx bx in
  let xq =
    {
      F2.re = M.mul ctx (M.of_bigint ctx params.zeta.Fp2.re) bx;
      im = M.mul ctx (M.of_bigint ctx params.zeta.Fp2.im) bx;
    }
  in
  { xq; nxq = { re = M.neg ctx xq.re; im = M.neg ctx xq.im }; yq = M.of_bigint ctx by }

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

let lower ctx (g : F2.f2) = Fp2.make (M.to_bigint ctx g.re) (M.to_bigint ctx g.im)

(* the Miller loop leaves [s.f]; the factor buffer [s.l] takes the result *)
let miller_final (params : Params.t) ctx s pairs =
  miller_product params ctx s pairs;
  final_exp_into params ctx s s.l s.f;
  lower ctx s.l

let pair (params : Params.t) a b =
  match (a, b) with
  | Curve.Affine { x = ax; y = ay }, Curve.Affine { x = bx; y = by } ->
    let ctx = Field.mont_ctx params.fp in
    miller_final params ctx (scratch ctx) [ (chain_of ctx ax ay, distort params ctx bx by) ]
  | Curve.Inf, _ | _, Curve.Inf -> invalid_arg "Pairing.pair: point at infinity"

(* Batch verification (Bls.verify_batch) needs Π e(a_i, b_i): the Miller
   loops share one accumulator and the product takes a single final
   exponentiation, valid because the final powering is a homomorphism of
   F_p²*. *)
let pair_product (params : Params.t) pairs =
  let ctx = Field.mont_ctx params.fp in
  let pairs =
    List.map
      (function
        | Curve.Affine { x = ax; y = ay }, Curve.Affine { x = bx; y = by } ->
          (chain_of ctx ax ay, distort params ctx bx by)
        | Curve.Inf, _ | _, Curve.Inf -> invalid_arg "Pairing.pair_product: point at infinity")
      pairs
  in
  miller_final params ctx (scratch ctx) pairs

(* ---- prepared first argument ----

   A mailbox scan pairs every ciphertext's U with the same identity key,
   so T's chain of multiples — and with it every line and vertical — is
   the same for each ciphertext; only Q changes. Preparation runs the
   chain once and divides each factor by its leading coefficient, with
   one batch inversion for the whole chain: lines become yq + b·xq + c,
   verticals xq − x. The divisors lie in F_p* and die in the final
   exponent like the Jacobian scalings, so evaluating the table is exactly
   [pair]: 2 multiplications per line, none per vertical, one accumulator
   f ← f²·l·conj(v).

   Everything lives in one flat int array, n = limb count:
   - the table, one [1 + 3n]-int slot per step: the step's tag, then b
     (or the vertical line's x), c, and the vertical's x;
   - after it, the batch inversion's work area: one [2n] entry per leading
     coefficient in step order (at most two per step), holding the
     coefficient and the product of all coefficients up to it.
   Keeping the whole chain in the array rather than in boxed per-step
   values is what keeps a scan from promoting them to the major heap. The
   array decrypts exactly as the key does, so it is a per-domain buffer
   borrowed for one [with_prepared] scope and zeroed on release. *)

type prepared = { prep_params : Params.t; table : int array; mutable live : bool }

let slot_words n = 1 + (3 * n)

let steps (params : Params.t) =
  let k = ref 0 in
  iter_schedule params.q ~dbl:(fun () -> incr k) ~add:(fun () -> incr k);
  !k

let buffer_words params n = steps params * (slot_words n + (4 * n))

let load buf off (dst : M.el) =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- buf.(off + i)
  done

let store buf off (src : M.el) =
  for i = 0 to Array.length src - 1 do
    buf.(off + i) <- src.(i)
  done

let prepare_into (params : Params.t) ctx ax ay buf =
  let n = M.limbs ctx in
  let work = steps params * slot_words n in
  let s = scratch ctx and t = chain_of ctx ax ay in
  (* forward: run the chain, storing numerators in the slots and leading
     coefficients with their running product in the work area *)
  let prod = M.one ctx in
  let slot = ref 0 and entries = ref 0 in
  let lead c =
    let w = work + (!entries * 2 * n) in
    M.mul_into ctx prod prod c;
    store buf w c;
    store buf (w + n) prod;
    incr entries
  in
  let record tag =
    if tag land line <> 0 then begin
      store buf (!slot + 1) t.m;
      store buf (!slot + 1 + n) t.c0;
      lead t.ly
    end
    else if tag land vert_line <> 0 then begin
      store buf (!slot + 1) t.tx;
      lead t.tzz
    end;
    if tag land vertical <> 0 then begin
      store buf (!slot + 1 + (2 * n)) t.tx;
      lead t.tzz
    end;
    buf.(!slot) <- tag;
    slot := !slot + slot_words n
  in
  iter_schedule params.q
    ~dbl:(fun () -> record (dbl_step ctx s t))
    ~add:(fun () -> record (add_step ctx s t));
  (* backward: u = 1/(c_0⋯c_e) peels one coefficient per entry
     (Montgomery's trick), normalising the numerators in place *)
  let u = M.zero ctx and inv = M.zero ctx and c = M.zero ctx in
  M.inv_into ctx u prod;
  let inverse () =
    decr entries;
    let w = work + (!entries * 2 * n) in
    if !entries = 0 then M.copy_into inv u
    else begin
      load buf (w - n) c;
      M.mul_into ctx inv u c
    end;
    load buf w c;
    M.mul_into ctx u u c
  in
  let scale ?(negate = false) off =
    load buf off c;
    M.mul_into ctx c c inv;
    if negate then M.neg_into ctx c c;
    store buf off c
  in
  while !slot > 0 do
    slot := !slot - slot_words n;
    let tag = buf.(!slot) in
    if tag land vertical <> 0 then begin
      inverse ();
      scale (!slot + 1 + (2 * n))
    end;
    if tag land line <> 0 then begin
      inverse ();
      scale ~negate:true (!slot + 1);
      scale (!slot + 1 + n)
    end
    else if tag land vert_line <> 0 then begin
      inverse ();
      scale (!slot + 1)
    end
  done

type borrowed = { mutable buf : int array; mutable busy : bool }

let table_buffer = Domain.DLS.new_key (fun () -> { buf = [||]; busy = false })

let with_prepared (params : Params.t) a f =
  match a with
  | Curve.Inf -> invalid_arg "Pairing.with_prepared: point at infinity"
  | Curve.Affine { x; y } ->
    let ctx = Field.mont_ctx params.fp in
    let words = buffer_words params (M.limbs ctx) in
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
        prepare_into params ctx x y table;
        f prep)

let prepared_table prep = prep.table

let pair_prepared prep b =
  if not prep.live then invalid_arg "Pairing.pair_prepared: key used after its with_prepared scope";
  match b with
  | Curve.Inf -> invalid_arg "Pairing.pair: point at infinity"
  | Curve.Affine { x = bx; y = by } ->
    let params = prep.prep_params and tbl = prep.table in
    let ctx = Field.mont_ctx params.fp in
    let n = M.limbs ctx in
    let q = distort params ctx bx by in
    (* coefficients are copied out of the shared table, never written to it *)
    let s = scratch ctx in
    let f = s.f and l = s.l and b = s.t0 and c = s.t1 in
    let base = ref 0 in
    let step () =
      let tag = tbl.(!base) in
      if tag land line <> 0 then begin
        (* yq + b·xq + c *)
        load tbl (!base + 1) b;
        load tbl (!base + 1 + n) c;
        M.mul_into ctx l.re b q.xq.re;
        M.add_into ctx l.re l.re q.yq;
        M.add_into ctx l.re l.re c;
        M.mul_into ctx l.im b q.xq.im;
        F2.mul_into ctx s.w f f l
      end
      else if tag land vert_line <> 0 then begin
        (* xq − x *)
        load tbl (!base + 1) b;
        M.sub_into ctx l.re q.xq.re b;
        M.copy_into l.im q.xq.im;
        F2.mul_into ctx s.w f f l
      end;
      if tag land vertical <> 0 then begin
        (* conj(xq − x) *)
        load tbl (!base + 1 + (2 * n)) b;
        M.sub_into ctx l.re q.xq.re b;
        M.copy_into l.im q.nxq.im;
        F2.mul_into ctx s.w f f l
      end;
      base := !base + slot_words n
    in
    F2.one_into ctx f;
    iter_schedule params.q
      ~dbl:(fun () ->
        F2.sqr_into ctx s.w f f;
        step ())
      ~add:step;
    final_exp_into params ctx s l f;
    lower ctx l

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

let warmup (params : Params.t) =
  ignore (Lazy.force c_cache_hit);
  ignore (Lazy.force c_cache_miss);
  Params.force_tables params

let pair_cached (params : Params.t) a b =
  match (a, b) with
  | Curve.Inf, _ | _, Curve.Inf -> invalid_arg "Pairing.pair: point at infinity"
  | Curve.Affine _, Curve.Affine _ -> begin
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
          Events.log Events.default ~severity:Debug
            ~detail:(Printf.sprintf "capacity %d" pair_cache_capacity)
            "pairing.cache_evict"
        | None -> ()
      end;
      Hashtbl.replace cache.Params.pc_table key gt;
      Queue.push key cache.Params.pc_fifo;
      gt
  end

let gt_bytes (params : Params.t) el = Fp2.to_bytes params.fp el

let gt_pow (params : Params.t) (g : Fp2.el) e =
  let ctx = Field.mont_ctx params.fp in
  lower ctx (F2.pow ctx { re = M.of_bigint ctx g.re; im = M.of_bigint ctx g.im } e)

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
      let y = Bigint.rem (Bigint.of_bytes_be stream) p in
      let y2m1 = M.sqr ctx (M.of_bigint ctx y) in
      M.sub_into ctx y2m1 y2m1 (M.one ctx);
      if M.is_zero y2m1 then attempt (ctr + 1)
      else begin
        let x = M.to_bigint ctx (M.cbrt ctx y2m1) in
        let pt = Curve.Affine { x; y } in
        match Curve.mul fp params.cofactor pt with
        | Curve.Inf -> attempt (ctr + 1)
        | g -> g
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
