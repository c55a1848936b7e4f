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
   each step reuses it instead of re-squaring. *)

module M = Mont
module F2 = Mont.F2

(* A step's factors as F_p coefficients of functions of the distorted
   second argument Q = (xq, yq): a vertical is vx·xq − x (vx ≠ 0); a line
   is ly·yq − m·xq + c0 (ly ≠ 0), a vertical, or absent. *)
type vertical = { vx : M.el; x : M.el }
type line = No_line | Line of { ly : M.el; m : M.el; c0 : M.el } | Vert of vertical

(* the running multiple T of the first argument P = (px, py): Jacobian
   with cached Z², infinity iff Z = 0 *)
type chain = {
  px : M.el;
  py : M.el;
  mutable tx : M.el;
  mutable ty : M.el;
  mutable tz : M.el;
  mutable tzz : M.el;
}

let chain_of ctx x y =
  let px = M.of_bigint ctx x and py = M.of_bigint ctx y in
  { px; py; tx = px; ty = py; tz = M.one ctx; tzz = M.one ctx }

(* T ← 2T (dbl-2009-l), returning the tangent at T and the vertical at 2T *)
let dbl_step ctx t =
  if M.is_zero t.tz then (No_line, None)
  else if M.is_zero t.ty then begin
    (* 2-torsion: the tangent at y = 0 is the vertical through T *)
    let l = Vert { vx = t.tzz; x = t.tx } in
    t.tz <- M.zero ctx;
    (l, None)
  end
  else begin
    let x = t.tx and y = t.ty and z = t.tz and zz = t.tzz in
    let a2 = M.sqr ctx x in
    let b = M.sqr ctx y in
    let c = M.sqr ctx b in
    let d = M.mul_small ctx (M.sub ctx (M.sub ctx (M.sqr ctx (M.add ctx x b)) a2) c) 2 in
    let e = M.mul_small ctx a2 3 in
    let x3 = M.sub ctx (M.sqr ctx e) (M.mul_small ctx d 2) in
    let y3 = M.sub ctx (M.mul ctx e (M.sub ctx d x3)) (M.mul_small ctx c 8) in
    let z3 = M.mul_small ctx (M.mul ctx y z) 2 in
    let zz3 = M.sqr ctx z3 in
    let c0 = M.sub ctx (M.mul ctx e x) (M.mul_small ctx b 2) in
    let l = Line { ly = M.mul ctx z3 zz; m = M.mul ctx e zz; c0 } in
    t.tx <- x3;
    t.ty <- y3;
    t.tz <- z3;
    t.tzz <- zz3;
    (l, Some { vx = zz3; x = x3 })
  end

(* T ← T + P (madd-2007-bl), returning the chord and the vertical at T + P *)
let add_step ctx t =
  if M.is_zero t.tz then begin
    (* O + P = P; the "line" is the vertical through P *)
    t.tx <- t.px;
    t.ty <- t.py;
    t.tz <- M.one ctx;
    t.tzz <- M.one ctx;
    (Vert { vx = M.one ctx; x = t.px }, None)
  end
  else begin
    let x = t.tx and y = t.ty and z = t.tz and zz = t.tzz in
    let u2 = M.mul ctx t.px zz in
    let s2 = M.mul ctx t.py (M.mul ctx z zz) in
    if M.equal u2 x then begin
      if M.equal s2 y then dbl_step ctx t
      else begin
        (* P = −T: the chord is the vertical through T; T + P = O *)
        t.tz <- M.zero ctx;
        (Vert { vx = zz; x }, None)
      end
    end
    else begin
      let h = M.sub ctx u2 x in
      let hh = M.sqr ctx h in
      let i = M.mul_small ctx hh 4 in
      let j = M.mul ctx h i in
      let r = M.mul_small ctx (M.sub ctx s2 y) 2 in
      let v = M.mul ctx x i in
      let x3 = M.sub ctx (M.sub ctx (M.sqr ctx r) j) (M.mul_small ctx v 2) in
      let y3 = M.sub ctx (M.mul ctx r (M.sub ctx v x3)) (M.mul_small ctx (M.mul ctx y j) 2) in
      let z3 = M.sub ctx (M.sub ctx (M.sqr ctx (M.add ctx z h)) zz) hh in
      let zz3 = M.sqr ctx z3 in
      let l = Line { ly = z3; m = r; c0 = M.sub ctx (M.mul ctx r t.px) (M.mul ctx z3 t.py) } in
      t.tx <- x3;
      t.ty <- y3;
      t.tz <- z3;
      t.tzz <- zz3;
      (l, Some { vx = zz3; x = x3 })
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
  { xq; nxq = F2.neg ctx xq; yq = M.of_bigint ctx by }

(* f·l(Q)·conj(v(Q)) *)
let absorb ctx f q (l, v) =
  let f =
    match l with
    | No_line -> f
    | Line { ly; m; c0 } ->
      F2.mul ctx f
        {
          re = M.add ctx (M.add ctx (M.mul ctx ly q.yq) c0) (M.mul ctx m q.nxq.re);
          im = M.mul ctx m q.nxq.im;
        }
    | Vert { vx; x } -> F2.mul ctx f (F2.sub_el ctx (F2.mul_el ctx q.xq vx) x)
  in
  match v with
  | None -> f
  | Some { vx; x } -> F2.mul ctx f (F2.conj ctx (F2.sub_el ctx (F2.mul_el ctx q.xq vx) x))

(* Π f_{q,a_i}(φ(b_i)) up to F_p* factors: every pair's chain steps in
   lockstep over one accumulator, so the accumulator squarings are paid
   once per iteration for all pairs (f ← f²·Π l_i·conj v_i) *)
let miller_product (params : Params.t) ctx pairs =
  let f = ref (F2.one ctx) in
  let step next = List.iter (fun (t, q) -> f := absorb ctx !f q (next ctx t)) pairs in
  iter_schedule params.q
    ~dbl:(fun () ->
      f := F2.sqr ctx !f;
      step dbl_step)
    ~add:(fun () -> step add_step);
  !f

(* f^((p²−1)/q) = (f^(p−1))^(12l). Frobenius on F_p² = F_p[i] is
   conjugation, since p ≡ 3 (mod 4) makes i^p = −i, so
   f^(p−1) = conj(f)/f = conj(f)²/N(f) with N(f) = f·conj(f) ∈ F_p: one
   base-field inversion and a power of bit length |12l| replace the
   (p²−1)/q-bit power. *)
let final_exp (params : Params.t) f =
  let ctx = Field.mont_ctx params.fp in
  let norm = M.add ctx (M.sqr ctx f.F2.re) (M.sqr ctx f.F2.im) in
  let u = F2.mul_el ctx (F2.sqr ctx (F2.conj ctx f)) (M.inv ctx norm) in
  F2.pow ctx u params.cofactor

let lower ctx (g : F2.f2) = Fp2.make (M.to_bigint ctx g.re) (M.to_bigint ctx g.im)

let pair (params : Params.t) a b =
  match (a, b) with
  | Curve.Affine { x = ax; y = ay }, Curve.Affine { x = bx; y = by } ->
    let ctx = Field.mont_ctx params.fp in
    let f = miller_product params ctx [ (chain_of ctx ax ay, distort params ctx bx by) ] in
    lower ctx (final_exp params f)
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
  lower ctx (final_exp params (miller_product params ctx pairs))

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
   - the table, one [1 + 3n]-int slot per step: a tag (line kind in bits
     0–1: 0 none, 1 line, 2 vertical; bit 2: vertical present), then b (or
     the vertical line's x), c, and the vertical's x;
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

let prepare_into (params : Params.t) ctx ax ay buf =
  let n = M.limbs ctx in
  let get off = Array.sub buf off n and put off el = Array.blit el 0 buf off n in
  let work = steps params * slot_words n in
  (* forward: run the chain, storing numerators in the slots and leading
     coefficients with their running product in the work area *)
  let t = chain_of ctx ax ay in
  let slot = ref 0 and entries = ref 0 and prod = ref (M.one ctx) in
  let lead c =
    let w = work + (!entries * 2 * n) in
    prod := M.mul ctx !prod c;
    put w c;
    put (w + n) !prod;
    incr entries
  in
  let record (l, v) =
    let kind =
      match l with
      | No_line -> 0
      | Line { ly; m; c0 } ->
        put (!slot + 1) m;
        put (!slot + 1 + n) c0;
        lead ly;
        1
      | Vert { vx; x } ->
        put (!slot + 1) x;
        lead vx;
        2
    in
    let vert =
      match v with
      | None -> 0
      | Some { vx; x } ->
        put (!slot + 1 + (2 * n)) x;
        lead vx;
        4
    in
    buf.(!slot) <- kind lor vert;
    slot := !slot + slot_words n
  in
  iter_schedule params.q
    ~dbl:(fun () -> record (dbl_step ctx t))
    ~add:(fun () -> record (add_step ctx t));
  (* backward: u = 1/(c_0⋯c_e) peels one coefficient per entry
     (Montgomery's trick), normalising the numerators in place *)
  let u = ref (M.inv ctx !prod) in
  let inverse () =
    decr entries;
    let w = work + (!entries * 2 * n) in
    let inv = if !entries = 0 then !u else M.mul ctx !u (get (w - n)) in
    u := M.mul ctx !u (get w);
    inv
  in
  let scale off inv = put off (M.mul ctx (get off) inv) in
  while !slot > 0 do
    slot := !slot - slot_words n;
    let tag = buf.(!slot) in
    if tag land 4 <> 0 then scale (!slot + 1 + (2 * n)) (inverse ());
    match tag land 3 with
    | 1 ->
      let inv = inverse () in
      put (!slot + 1) (M.neg ctx (M.mul ctx (get (!slot + 1)) inv));
      scale (!slot + 1 + n) inv
    | 2 -> scale (!slot + 1) (inverse ())
    | _ -> ()
  done

type scratch = { mutable buf : int array; mutable busy : bool }

let scratch = Domain.DLS.new_key (fun () -> { buf = [||]; busy = false })

let with_prepared (params : Params.t) a f =
  match a with
  | Curve.Inf -> invalid_arg "Pairing.with_prepared: point at infinity"
  | Curve.Affine { x; y } ->
    let ctx = Field.mont_ctx params.fp in
    let words = buffer_words params (M.limbs ctx) in
    let s = Domain.DLS.get scratch in
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
    let b = Array.make n 0 and c = Array.make n 0 and x = Array.make n 0 in
    let f = ref (F2.one ctx) in
    let base = ref 0 in
    let step () =
      let tag = tbl.(!base) in
      (match tag land 3 with
       | 1 ->
         Array.blit tbl (!base + 1) b 0 n;
         Array.blit tbl (!base + 1 + n) c 0 n;
         f :=
           F2.mul ctx !f
             { re = M.add ctx (M.add ctx q.yq c) (M.mul ctx b q.xq.re); im = M.mul ctx b q.xq.im }
       | 2 ->
         Array.blit tbl (!base + 1) b 0 n;
         f := F2.mul ctx !f (F2.sub_el ctx q.xq b)
       | _ -> ());
      if tag land 4 <> 0 then begin
        Array.blit tbl (!base + 1 + (2 * n)) x 0 n;
        f := F2.mul ctx !f { re = M.sub ctx q.xq.re x; im = q.nxq.im }
      end;
      base := !base + slot_words n
    in
    iter_schedule params.q
      ~dbl:(fun () ->
        f := F2.sqr ctx !f;
        step ())
      ~add:step;
    lower ctx (final_exp params !f)

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
  let p = Field.modulus fp in
  let rec attempt ctr =
    if ctr > 255 then failwith "Pairing.hash_to_group: exhausted"
    else begin
      (* expand the identity to enough bytes for near-uniform y mod p *)
      let need = Field.element_bytes fp + 16 in
      let stream =
        Alpenhorn_crypto.Hmac.hkdf ~info:(Printf.sprintf "alpenhorn-h2g-%d" ctr) ~len:need id
      in
      let y = Bigint.rem (Bigint.of_bytes_be stream) p in
      let y2m1 = Field.sub fp (Field.sqr fp y) Bigint.one in
      if Field.is_zero y2m1 then attempt (ctr + 1)
      else begin
        let x = Field.cbrt fp y2m1 in
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
