(** The supersingular curve [E : y² = x³ + 1] over [F_p].

    With [p ≡ 2 (mod 3)] this curve is supersingular and
    [#E(F_p) = p + 1]. G1 is its order-q subgroup. Affine coordinates
    throughout (inversions via extended Euclid are cheap at our sizes and
    keep the Miller-loop line functions straightforward). *)

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
    property tests check [mul] and {!Fixed_base.mul} against it. *)

(** Precomputed tables for long-lived base points (the generator, PKG
    master keys): [mul] over a table costs ~one point addition per
    4 scalar bits and no doublings. *)
module Fixed_base : sig
  type table

  val make : Field.t -> point -> table
  (** Precompute windows covering any scalar below the field modulus
      (~60 point operations per window row at production sizes). *)

  val mul : Field.t -> table -> Bigint.t -> point
  (** Falls back to the generic path for scalars wider than the table.
      @raise Invalid_argument on negative scalars. *)
end

val point_bytes : Field.t -> int
(** Serialized size: one field element plus a parity byte. *)

val to_bytes : Field.t -> point -> string
(** Compressed: [x || sign-of-y] ; the point at infinity is all-0xFF. *)

val of_bytes : Field.t -> string -> point option
(** Decompress; [None] if malformed or not on the curve. *)
