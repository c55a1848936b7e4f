module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg

type pair_cache = {
  pc_table : (string, Mont.F2.f2) Hashtbl.t;
  pc_fifo : string Queue.t;
}

type consts = { zeta_m : Mont.F2.f2; inv_zeta_im : Mont.el; half_cofactor : Bigint.t }

type t = {
  fp : Field.t;
  q : Bigint.t;
  cofactor : Bigint.t;
  zeta : Fp2.el;
  g : Curve.point;
  tate_exp : Bigint.t;
  g_table : Curve.Comb.t Lazy.t;
  consts : consts Lazy.t;
  table_mu : Mutex.t;
  pair_cache : pair_cache Domain.DLS.key;
}

let fresh_pair_cache () = { pc_table = Hashtbl.create 64; pc_fifo = Queue.create () }

(* Concurrent [Lazy.force] from two domains raises [Lazy.Undefined]; the
   mutex (with an is_val fast path once forced) makes first-use safe even if
   a caller forgot [force_tables] before going parallel. *)
let force t l =
  if Lazy.is_val l then Lazy.force l
  else begin
    Mutex.lock t.table_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.table_mu) (fun () -> Lazy.force l)
  end

let force_g_table t = force t t.g_table
let consts t = force t t.consts
let mul_g t k = Curve.Comb.mul t.fp (force_g_table t) k
let mul_batch t jobs = Curve.mul_batch t.fp ~combs:[ force_g_table t ] jobs

let g1_of_bytes t s =
  Option.bind (Curve.of_bytes t.fp s) (fun p -> if Curve.order_divides t.fp t.q p then Some p else None)

let force_tables t =
  ignore (force_g_table t);
  ignore (consts t)

let is_prime rng n =
  Bigint.is_probable_prime ~rounds:24 ~rand:(fun ~bits -> Drbg.bigint_bits rng bits) n

let random_prime rng bits =
  let rec go () =
    let c = Drbg.bigint_bits rng (bits - 1) in
    (* force top and bottom bits *)
    let c = Bigint.add (Bigint.add c c) Bigint.one in
    let c = Bigint.add c (Bigint.shift_left Bigint.one (bits - 1)) in
    let c = if Bigint.numbits c > bits then Bigint.sub c (Bigint.shift_left Bigint.one bits) else c in
    if Bigint.numbits c = bits && is_prime rng c then c else go ()
  in
  go ()

(* A primitive cube root of unity in F_p²: t^((p²-1)/3) for random t, retried
   until it is nontrivial. p ≡ 2 (mod 3) forces it out of F_p. *)
let find_zeta rng fp =
  let p = Field.modulus fp in
  let e = Bigint.div (Bigint.sub (Bigint.mul p p) Bigint.one) (Bigint.of_int 3) in
  let rec go () =
    let t = Fp2.make (Drbg.bigint_below rng p) (Drbg.bigint_below rng p) in
    if Fp2.is_zero t then go ()
    else begin
      let z = Fp2.pow fp t e in
      if Fp2.equal z Fp2.one then go () else z
    end
  in
  go ()

(* A generator of G1: random curve point times the cofactor. *)
let find_generator rng fp cofactor q =
  let p = Field.modulus fp in
  let rec go () =
    let y = Drbg.bigint_below rng p in
    let y2m1 = Field.sub fp (Field.sqr fp y) Bigint.one in
    let g = Curve.mul fp cofactor (Curve.make fp ~x:(Field.cbrt fp y2m1) ~y) in
    if Curve.is_infinity g || not (Curve.order_divides fp q g) then go () else g
  in
  go ()

let build q l =
  let twelve_l = Bigint.mul_int l 12 in
  let p = Bigint.sub (Bigint.mul twelve_l q) Bigint.one in
  let fp = Field.create p in
  let rng = Drbg.create ~seed:("alpenhorn-params" ^ Bigint.to_string p) in
  let zeta = find_zeta rng fp in
  let g = find_generator rng fp twelve_l q in
  {
    fp;
    q;
    cofactor = twelve_l;
    zeta;
    g;
    tate_exp = Bigint.div (Bigint.sub (Bigint.mul p p) Bigint.one) q;
    (* 255 entries: 29 doublings and additions per product on the
       production curve, 8 on the test curve *)
    g_table = lazy (Curve.Comb.make fp ~w:8 ~bits:(Bigint.numbits q) g);
    consts =
      lazy
        (let ctx = Field.mont_ctx fp in
         {
           zeta_m = { Mont.F2.re = Mont.of_bigint ctx zeta.Fp2.re; im = Mont.of_bigint ctx zeta.Fp2.im };
           inv_zeta_im = Mont.of_bigint ctx (Field.inv fp zeta.Fp2.im);
           half_cofactor = Bigint.mul_int l 6;
         });
    table_mu = Mutex.create ();
    pair_cache = Domain.DLS.new_key fresh_pair_cache;
  }

let generate rng ~qbits =
  let q = random_prime rng qbits in
  (* find l making p = 12·l·q - 1 prime *)
  let rec find_l l =
    let p = Bigint.sub (Bigint.mul_int (Bigint.mul l q) 12) Bigint.one in
    if is_prime rng p then l else find_l (Bigint.add l Bigint.one)
  in
  let l = find_l (Bigint.add (Drbg.bigint_bits rng 8) Bigint.one) in
  build q l

let validate t =
  let p = Field.modulus t.fp in
  let check name cond = if not cond then failwith ("Params.validate: " ^ name) in
  let rng = Drbg.create ~seed:"params-validate" in
  check "p prime" (is_prime rng p);
  check "q prime" (is_prime rng t.q);
  check "p = cofactor*q - 1" (Bigint.equal (Bigint.add p Bigint.one) (Bigint.mul t.cofactor t.q));
  check "cofactor divisible by 12" (Bigint.is_zero (Bigint.rem t.cofactor (Bigint.of_int 12)));
  check "zeta nontrivial" (not (Fp2.equal t.zeta Fp2.one));
  check "zeta^3 = 1" (Fp2.equal (Fp2.mul t.fp t.zeta (Fp2.sqr t.fp t.zeta)) Fp2.one);
  check "zeta not in F_p" (not (Fp2.in_base_field t.zeta));
  check "g not infinity" (not (Curve.is_infinity t.g));
  check "g has order q" (Curve.order_divides t.fp t.q t.g);
  check "tate_exp * q = p^2 - 1"
    (Bigint.equal (Bigint.mul t.tate_exp t.q) (Bigint.sub (Bigint.mul p p) Bigint.one))

(* Pregenerated sets: (q, l) pairs found with [generate] (see
   devtools/genparams). [build] reconstructs everything else
   deterministically; [validate] re-checks the invariants. *)

let memo f =
  let cell = ref None in
  fun () ->
    match !cell with
    | Some v -> v
    | None ->
      let v = f () in
      validate v;
      cell := Some v;
      v

let test =
  memo (fun () ->
      build (Bigint.of_string "0x89ee8ad67fad84a5") (Bigint.of_string "0xe2"))

let production =
  memo (fun () ->
      build
        (Bigint.of_string "0x1249899b522a9407586a8c886a0059b4e241d85783d81f7be0d60d009")
        (Bigint.of_string "0x1b6"))

let of_named = function
  | "test" -> test ()
  | "production" -> production ()
  | s -> invalid_arg ("Params.of_named: " ^ s)

let derived f =
  let built = Atomic.make [] in
  fun p ->
    match List.assq_opt p (Atomic.get built) with
    | Some v -> v
    | None ->
      let v = f p in
      Atomic.set built ((p, v) :: Atomic.get built);
      v
