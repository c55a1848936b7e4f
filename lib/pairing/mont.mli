(** Fixed-width Montgomery arithmetic over [F_p] — the multiplication
    kernel under the pairing stack's hot path.

    An {!el} is a flat little-endian array of exactly [n] 31-bit limbs
    holding [a·R mod p] with [R = 2^(31n)]; 31-bit limbs keep every CIOS
    partial product inside OCaml's 63-bit native [int]. A {!ctx} carries
    the modulus, the precomputed constants ([−p⁻¹ mod 2^31], [R² mod p])
    and a scratch buffer, so the per-multiplication cost is two tight
    int-array loops and one allocation for the result.

    Values stay in Montgomery form across whole computations (Miller
    loops, scalar ladders, final exponentiations); only
    {!of_bigint}/{!to_bigint} pay the conversion. The generic
    Bigint+Barrett path in {!Field} remains the reference implementation;
    [test/test_mont.ml] cross-validates every operation against it.

    Every [mul]/[sqr] bumps the ["pairing.mont_mul"] telemetry counter on
    the default registry, which is how `bench smoke` proves the fast path
    is actually selected. Not constant-time (see {!Alpenhorn_crypto}).
    A shared [ctx] is safe to use from several domains at once: the CIOS
    scratch buffer is domain-local ([Domain.DLS]), so the parallel batch
    paths ({!Alpenhorn_parallel.Parallel}) can hammer one context without
    corrupting each other's accumulators. *)

module Bigint = Alpenhorn_bigint.Bigint

type el = int array
(** One field element in Montgomery form, [n] limbs. Treat as opaque;
    aliasing is safe because no exported operation mutates its inputs. *)

type ctx

val create : Bigint.t -> ctx
(** Precompute a context for an odd modulus.
    @raise Invalid_argument if the modulus is even or not positive. *)

val limbs : ctx -> int
(** Limb count [n] of every element of this context. *)

val zero : ctx -> el
val one : ctx -> el

val of_bigint : ctx -> Bigint.t -> el
(** Any value (reduced mod p first, negatives included). *)

val to_bigint : ctx -> el -> Bigint.t
(** Back to a canonical value in [[0, p)]. *)

val is_zero : el -> bool
val equal : el -> el -> bool

val add : ctx -> el -> el -> el
val sub : ctx -> el -> el -> el
val neg : ctx -> el -> el

val mul : ctx -> el -> el -> el
(** CIOS Montgomery multiplication: [abR⁻¹ mod p]. *)

val sqr : ctx -> el -> el

val mul_small : ctx -> el -> int -> el
(** Multiply by a small non-negative plain integer (the 2/3/8 of the
    curve formulas). @raise Invalid_argument outside [[0, 2^31)]. *)

val pow : ctx -> el -> Bigint.t -> el
(** Exponent is a plain (non-Montgomery) non-negative Bigint. *)

val inv : ctx -> el -> el
(** Fermat inversion [a^(p−2)]; p must be prime (true for every field
    this repo constructs). @raise Division_by_zero on zero. *)

val sqrt : ctx -> el -> el option
(** [Some (a^((p+1)/4))] when that squares to [a], else [None] ([a] is a
    non-residue) — the same root {!Field.sqrt} returns.
    @raise Invalid_argument unless p ≡ 3 (mod 4). *)

(** [F_p² = F_p[i]/(i²+1)] with components in Montgomery form — mirrors
    {!Fp2} operation for operation so the Miller loop and final
    exponentiation never leave Montgomery representation. *)
module F2 : sig
  type f2 = { re : el; im : el }

  val zero : ctx -> f2
  val one : ctx -> f2
  val of_el : ctx -> el -> f2
  val is_zero : f2 -> bool
  val equal : f2 -> f2 -> bool
  val add : ctx -> f2 -> f2 -> f2
  val sub : ctx -> f2 -> f2 -> f2
  val neg : ctx -> f2 -> f2
  val conj : ctx -> f2 -> f2
  val sub_el : ctx -> f2 -> el -> f2
  val mul : ctx -> f2 -> f2 -> f2
  val sqr : ctx -> f2 -> f2
  val mul_el : ctx -> f2 -> el -> f2
  val inv : ctx -> f2 -> f2
  val pow : ctx -> f2 -> Bigint.t -> f2
end
