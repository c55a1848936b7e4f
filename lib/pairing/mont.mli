(** Fixed-width Montgomery arithmetic over [F_p] — the multiplication
    kernel under the pairing stack's hot path.

    An {!el} is a flat little-endian array of exactly [n] 30-bit limbs
    holding [a·R mod p] with [R = 2^(30n)]. Multiplication is FIOS (finely
    integrated operand scanning): with 30-bit limbs each inner step
    [a_i·b_j + m·p_j + t_j + carry] stays below [2^62], inside OCaml's
    63-bit native [int], so the product and the Montgomery reduction share
    one pass. A {!ctx} carries the modulus and the precomputed constants
    ([−p⁻¹ mod 2^30], [R² mod p], the root exponents, a reciprocal of p's
    top bits for {!mul_small_into}).

    {b Kernels per limb count.} {!mul_into}, {!add_into}, {!sub_into} (so
    {!neg_into} and all of {!F2}) and {!mul_small_into} match on [n]. For
    the two fields the system runs, 3 limbs (the test curve's 72-bit p)
    and 8 limbs (the production curve's 237-bit p), they run straight-line
    kernels that lib/pairing/gen/gen_kernels.ml generates at build time:
    every limb index a constant, the accumulator in local variables, and
    the final reduction one borrow pass over [t − p]. Every other limb
    count runs the same algorithms as loops, with the multiplication's
    [n+1]-limb accumulator kept per domain ([Domain.DLS]). Both give the
    same canonical result in [[0, p)].

    Operations are destination-passing: [mul_into ctx dst a b] writes
    [a·b] into [dst], an element the caller owns, and allocates nothing;
    [dst] may be [a], [b] or both. The allocating forms ([mul], [add], …)
    return a fresh element. Callers that run many operations (a ladder, a
    Miller loop) keep their temporaries in one scratch record per
    operation, so the hot paths allocate nothing per field operation.

    Values stay in Montgomery form across whole computations (Miller
    loops, scalar ladders, final exponentiations); only
    {!of_bigint}/{!to_bigint} pay the conversion and repack between these
    limbs and {!Bigint}'s 31-bit ones. The generic Bigint+Barrett path in
    {!Field} remains the reference implementation; [test/test_mont.ml]
    cross-validates every operation against it, and checks the kernels on
    raw limb arrays against a [Bigint] oracle on moduli of both kernel
    sizes and of two loop sizes.

    Every multiplication bumps the ["pairing.mont_mul"] telemetry counter
    on the default registry, which is how `bench smoke` proves the fast
    path is actually selected. Not constant-time (see
    {!Alpenhorn_crypto}). A shared [ctx] is safe to use from several
    domains at once: it is read-only, the straight-line kernels keep their
    intermediate values in locals, and the loops' accumulator is
    domain-local. *)

module Bigint = Alpenhorn_bigint.Bigint

type el = int array
(** One field element in Montgomery form, [n] limbs. Treat as opaque. *)

type ctx

val create : Bigint.t -> ctx
(** Precompute a context for an odd modulus.
    @raise Invalid_argument if the modulus is even or not positive. *)

val limbs : ctx -> int
(** Limb count [n] of every element of this context. *)

val zero : ctx -> el
(** A fresh zero; also how callers allocate their own elements. *)

val one : ctx -> el

val of_bigint : ctx -> Bigint.t -> el
(** Any value (reduced mod p first, negatives included). *)

val to_bigint : ctx -> el -> Bigint.t
(** Back to a canonical value in [[0, p)]. *)

val is_zero : el -> bool
val equal : el -> el -> bool

(** {1 In place}

    Each writes its result into the first element argument. The
    destination may be any of the inputs unless noted. *)

val copy_into : el -> el -> unit
val zero_into : el -> unit
val one_into : ctx -> el -> unit
val add_into : ctx -> el -> el -> el -> unit
val sub_into : ctx -> el -> el -> el -> unit
val neg_into : ctx -> el -> el -> unit

val mul_into : ctx -> el -> el -> el -> unit
(** FIOS Montgomery multiplication: [dst ← abR⁻¹ mod p]. *)

val mul_small_into : ctx -> el -> el -> int -> unit
(** Multiply by a small plain integer [k] (the 2, 3, 4 and 8 of the curve
    and Miller formulas), in time linear in the limb count whatever [k].
    @raise Invalid_argument outside [[0, 12]]. *)

val pow_into : ctx -> el -> el -> Bigint.t -> unit
(** The exponent is a plain (non-Montgomery) non-negative Bigint.
    Allocates one element when the destination is the base. *)

val inv_into : ctx -> el -> el -> unit
(** Fermat inversion [a^(p−2)]; p must be prime (true for every field
    this repo constructs). @raise Division_by_zero on zero. *)

val inv_all : ctx -> el array -> unit
(** Replaces every element by its inverse, in place, with one inversion
    and [3(k − 1)] multiplications for [k] elements (Montgomery's trick).
    The elements must be distinct arrays. Allocates [k] elements.
    @raise Division_by_zero if any element is zero. *)

val sqrt_into : ctx -> el -> el -> bool
(** Writes [a^((p+1)/4)] and returns whether it squares to [a] ([false]
    when [a] is a non-residue) — the same root {!Field.sqrt} returns.
    Allocates the element that check squares into.
    @raise Invalid_argument unless p ≡ 3 (mod 4). *)

val cbrt_into : ctx -> el -> el -> unit
(** The unique cube root [a^((2p−1)/3)] — the root {!Field.cbrt}
    returns. @raise Invalid_argument unless p ≡ 2 (mod 3). *)

val legendre : ctx -> el -> int
(** The Legendre symbol of the element modulo p (prime): [1], [−1], or [0]
    for zero. Runs on the limbs, with no multiplication; allocates two
    copies of them. *)

(** {1 Allocating} *)

val add : ctx -> el -> el -> el
val sub : ctx -> el -> el -> el
val neg : ctx -> el -> el
val mul : ctx -> el -> el -> el
val sqr : ctx -> el -> el
val mul_small : ctx -> el -> int -> el
val pow : ctx -> el -> Bigint.t -> el
val inv : ctx -> el -> el
val sqrt : ctx -> el -> el option
val cbrt : ctx -> el -> el

(** [F_p² = F_p[i]/(i²+1)] with components in Montgomery form — mirrors
    {!Fp2} operation for operation so the Miller loop and final
    exponentiation never leave Montgomery representation. The in-place
    products take their temporaries from a {!scratch} the caller owns;
    one scratch serves any sequence of operations on one domain. *)
module F2 : sig
  type f2 = { re : el; im : el }

  type scratch
  (** Four elements of temporaries. *)

  val scratch : ctx -> scratch
  val zero : ctx -> f2
  val is_zero : f2 -> bool
  val equal : f2 -> f2 -> bool

  (** {1 In place} The destination may be an input unless noted. *)

  val copy_into : f2 -> f2 -> unit
  val one_into : ctx -> f2 -> unit
  val add_into : ctx -> f2 -> f2 -> f2 -> unit
  val sub_into : ctx -> f2 -> f2 -> f2 -> unit
  val conj_into : ctx -> f2 -> f2 -> unit
  val mul_into : ctx -> scratch -> f2 -> f2 -> f2 -> unit
  val sqr_into : ctx -> scratch -> f2 -> f2 -> unit

  val mul_el_into : ctx -> f2 -> f2 -> el -> unit
  (** The base-field factor must not be a component of the destination. *)

  val inv_into : ctx -> scratch -> f2 -> f2 -> unit
  (** @raise Division_by_zero on zero. *)

  val pow_into : ctx -> scratch -> f2 -> f2 -> Bigint.t -> unit
  (** Allocates a copy of the base when the destination shares it. *)

  (** {1 Allocating} *)

  val add : ctx -> f2 -> f2 -> f2
  val sub : ctx -> f2 -> f2 -> f2
  val mul : ctx -> f2 -> f2 -> f2
  val sqr : ctx -> f2 -> f2
  val mul_el : ctx -> f2 -> el -> f2
  val inv : ctx -> f2 -> f2
  val pow : ctx -> f2 -> Bigint.t -> f2
end
