(** The supersingular curve [E : y² = x³ + 1] over [F_p].

    With [p ≡ 2 (mod 3)] this curve is supersingular and
    [#E(F_p) = p + 1]. G1 is its order-q subgroup. A {!point} holds its
    affine coordinates in the field's Montgomery form ({!Mont}), and lies
    on the curve: only {!make}, {!of_mont} and {!of_bytes} (all three
    checked), the scalar multiplications, {!add}/{!sum}/{!neg} and
    [Pairing.hash_to_group] make one. Operations run on Jacobian
    coordinates and pay one Fermat inversion to come back to affine,
    shared by every result of a batch. A point is never written after it
    is returned, so domains may share one. The [Bigint] ladder
    {!mul_affine} is the reference the property tests hold them to. *)

module Bigint = Alpenhorn_bigint.Bigint

type point

val infinity : point
val is_infinity : point -> bool

val make : Field.t -> x:Bigint.t -> y:Bigint.t -> point
(** For set-up and tests. @raise Invalid_argument if not on the curve. *)

val coords : Field.t -> point -> (Bigint.t * Bigint.t) option
(** [Bigint] affine coordinates ([None] for infinity), for set-up, the
    reference implementations and tests. *)

val of_mont : Field.t -> x:Mont.el -> y:Mont.el -> point
(** {!make} from Montgomery coordinates, which the point takes over. *)

val mont_coords : point -> Mont.el * Mont.el
(** The arrays themselves, for the pairing, which only reads them. *)

val equal : point -> point -> bool
val neg : Field.t -> point -> point

val add : Field.t -> point -> point -> point

val sum : Field.t -> point list -> point
(** Mixed Jacobian additions into one accumulator, then one inversion:
    key and signature aggregation. *)

val mul : Field.t -> Bigint.t -> point -> point
(** Scalar multiplication: windowed (w = 4) double-and-add over Jacobian
    coordinates on the fixed-limb Montgomery kernel, one field inversion
    total (the hot path of IBE, BLS and DH). *)

val order_divides : Field.t -> Bigint.t -> point -> bool
(** [order_divides f k p] is whether [k·p = O]: with [k] the group order
    q, whether [p] lies in G1, the check of [Params.g1_of_bytes]. The
    cost of a {!mul} without its inversion.
    @raise Invalid_argument on a negative scalar. *)

val msm_batch : Field.t -> (Bigint.t * point) list list -> point list
(** [Σ ki·pi] for each group [\[(k1,p1); …\]], sharing one doubling chain
    and one final inversion across a group's terms — much cheaper than n
    [mul]s plus n−1 [add]s for the many-short-scalars shape of
    [Bls.verify_batch] — and that inversion across the groups. Zero scalars
    and infinity contribute nothing.
    @raise Invalid_argument on negative scalars. *)

val mul_affine : Field.t -> Bigint.t -> point -> point
(** Reference ladder over [Bigint] affine operations (one inversion per
    step); property tests check [mul], {!Comb.mul}, {!mul_batch} and
    {!add} against it. *)

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
    once per base. Zero scalars and infinite bases give infinity.
    @raise Invalid_argument on negative scalars. *)

val point_bytes : Field.t -> int
(** Serialized size: one field element plus a parity byte. *)

val to_bytes : Field.t -> point -> string
(** Compressed: [x || parity of y], [x] big-endian; the point at infinity
    is all-0xFF. *)

val of_bytes : Field.t -> string -> point option
(** Decompress; [None] if malformed or not on the curve. The point may lie
    outside G1 (the curve has [p + 1] points); decoders of keys that must
    lie in G1 use [Params.g1_of_bytes]. *)
