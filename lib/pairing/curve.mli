(** The supersingular curve [E : y² = x³ + 1] over [F_p].

    With [p ≡ 2 (mod 3)] this curve is supersingular and
    [#E(F_p) = p + 1]. G1 is its order-q subgroup. Points cross this
    interface in affine [Bigint] coordinates. Scalar multiplication runs
    on Jacobian coordinates over the field's fixed-limb Montgomery kernel
    ({!Mont}) and pays one Fermat inversion to come back to affine, shared
    by every result of a batch ({!mul_batch}, {!msm_batch}). The affine
    {!add}, {!double} and {!mul_affine} invert at every step; they are the
    reference the property tests compare the fast paths against. *)

module Bigint = Alpenhorn_bigint.Bigint

type point = Inf | Affine of { x : Bigint.t; y : Bigint.t }

val infinity : point
val make : Field.t -> x:Bigint.t -> y:Bigint.t -> point
(** @raise Invalid_argument if not on the curve. *)

val is_on_curve : Field.t -> point -> bool
val equal : point -> point -> bool
val neg : Field.t -> point -> point
val add : Field.t -> point -> point -> point
val double : Field.t -> point -> point
val mul : Field.t -> Bigint.t -> point -> point
(** Scalar multiplication: windowed (w = 4) double-and-add over Jacobian
    coordinates on the fixed-limb Montgomery kernel, one field inversion
    total (the hot path of IBE, BLS and DH). *)

val msm : Field.t -> (Bigint.t * point) list -> point
(** [msm f \[(k1,p1); …\]] is [Σ ki·pi], sharing one doubling chain and
    one final inversion across all terms — much cheaper than n [mul]s
    plus n−1 [add]s for the many-short-scalars shape of
    [Bls.verify_batch]. Zero scalars and [Inf] points contribute nothing.
    @raise Invalid_argument on negative scalars. *)

val msm_batch : Field.t -> (Bigint.t * point) list list -> point list
(** One {!msm} per group, with a single shared inversion across all the
    groups' affine conversions.
    @raise Invalid_argument on negative scalars. *)

val mul_affine : Field.t -> Bigint.t -> point -> point
(** Reference ladder over affine operations (one inversion per step);
    property tests check [mul], {!Comb.mul} and {!mul_batch} against it. *)

(** Lim–Lee comb (CRYPTO '94) of a fixed base [P]: with
    [cols = ⌈bits / w⌉], the [2^w − 1] entries are [Σ 2^(j·cols)·P] over
    every nonempty set of teeth [j < w], stored affine in Montgomery form
    (normalized with one shared inversion). [k·P] then costs [cols]
    doublings and at most [cols] mixed additions, and no table per call.
    The generator's table ({!Params.mul_g}) is a comb at a wide [w];
    {!mul_batch} builds narrow ones for the bases it multiplies often. *)
module Comb : sig
  type t

  val make : Field.t -> w:int -> bits:int -> point -> t
  (** A table for scalars of up to [bits] bits: [(w − 1)·cols] doublings,
      [2^w − 1 − w] additions and one inversion.
      @raise Invalid_argument unless [1 <= w <= 16]. *)

  val mul : Field.t -> t -> Bigint.t -> point
  (** Falls back to {!mul} for scalars wider than the table.
      @raise Invalid_argument on negative scalars. *)
end

val mul_batch : Field.t -> ?combs:Comb.t list -> (Bigint.t * point) array -> point array
(** [k·P] for every job [(k, P)], in order, sharing one inversion. Jobs
    are grouped by base. A group runs on the table in [combs] for its base
    if that covers its scalars; otherwise on a comb built for the batch
    ([w] = 6) when, by the formulas' multiplication counts, the group's
    number of jobs pays for building it — 4 jobs of a 64-bit scalar on the
    test curve, 2 on the production curve, so a single use stays
    variable-base; otherwise on {!mul}'s windowed ladder, its table built
    once per base. Zero scalars and [Inf] bases give [Inf].
    @raise Invalid_argument on negative scalars. *)

val point_bytes : Field.t -> int
(** Serialized size: one field element plus a parity byte. *)

val to_bytes : Field.t -> point -> string
(** Compressed: [x || sign-of-y] ; the point at infinity is all-0xFF. *)

val of_bytes : Field.t -> string -> point option
(** Decompress; [None] if malformed or not on the curve. *)
