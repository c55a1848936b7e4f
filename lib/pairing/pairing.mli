(** The modified Tate pairing ê : G1 × G1 → GT ⊂ F_p²*.

    [pair params a b] computes [f_{q,a}(φ(b))^((p²−1)/q)] by Miller's
    algorithm, where φ is the distortion map [(x, y) ↦ (ζx, y)]. The
    distortion map makes the pairing symmetric and non-degenerate on G1
    (ê(g, g) ≠ 1), which is what Boneh-Franklin IBE and BLS signatures
    need. Bilinearity: ê(aP, bQ) = ê(P, Q)^{ab}.

    Denominator elimination does not apply (the distorted point's
    x-coordinate is not in F_p), so every vertical stays a factor.

    [pair] runs the Miller loop in Jacobian coordinates over the
    fixed-limb Montgomery kernel ({!Mont}) — no field inversions inside
    the loop, every line scaled by factors in F_p* that the final
    exponentiation kills, verticals multiplied in conjugated rather than
    divided out, and {!final_exp} in place of the full power.
    {!with_prepared}/{!pair_prepared} split it for a first argument that
    pairs with many second arguments. [pair_reference] is the affine
    Bigint+Barrett implementation all of them are property-tested
    against. *)

module Bigint = Alpenhorn_bigint.Bigint

val pair : Params.t -> Curve.point -> Curve.point -> Fp2.el
(** @raise Invalid_argument if either argument is the point at infinity
    (those never arise in honest protocol runs; ciphertext decoding rejects
    them earlier). *)

val pair_reference : Params.t -> Curve.point -> Curve.point -> Fp2.el
(** Affine reference implementation; agrees with [pair] exactly. *)

val pair_cached : Params.t -> Curve.point -> Curve.point -> Fp2.el
(** [pair] through the parameter set's bounded fixed-argument memo
    (FIFO-evicted, one cache per domain so parallel verifies never
    contend). Callers with recurring pairs — IBE encryption to a master
    key, BLS verification against known signers — use this; hit and miss
    counts land on the ["pairing.cache_hits"/"pairing.cache_misses"]
    telemetry counters. *)

type prepared
(** A first argument with its Miller chain precomputed: every line and
    vertical of the loop, divided by its leading coefficient, in a flat
    table. It decrypts exactly as the point does. *)

val with_prepared : Params.t -> Curve.point -> (prepared -> 'a) -> 'a
(** [with_prepared params a f] prepares [a] (about two prepared
    pairings' work, a little less than one [pair]),
    runs [f] on it and then zeroes the table, also when [f] raises. The
    table lives in a buffer of the calling domain, borrowed for the
    scope; [f] may hand the key to pool workers, which only read it.
    @raise Invalid_argument if [a] is the point at infinity. *)

val pair_prepared : prepared -> Curve.point -> Fp2.el
(** [pair_prepared k b] is [pair params a b] for the key [k] prepared
    from [a], at about 40% of its cost.
    @raise Invalid_argument after [k]'s [with_prepared] scope has ended,
    or if [b] is the point at infinity. *)

val prepared_table : prepared -> int array
(** The table itself, not a copy — exposed so tests can check that the
    scope's release zeroes it. *)

val final_exp : Params.t -> Mont.F2.f2 -> Mont.F2.f2
(** [f^((p²−1)/q)], computed as [(conj(f)²/N(f))^(12l)]: Frobenius is
    conjugation on F_p² because p ≡ 3 (mod 4), so [f^(p−1) =
    conj(f)/f]. Equal to [Mont.F2.pow f tate_exp].
    @raise Division_by_zero on zero. *)

val gt_pow : Params.t -> Fp2.el -> Bigint.t -> Fp2.el
(** Exponentiation in GT on the Montgomery kernel; equal to
    [Fp2.pow]. *)

val pair_product : Params.t -> (Curve.point * Curve.point) list -> Fp2.el
(** [pair_product params \[(a1,b1); …; (an,bn)\]] is [Π ê(ai, bi)],
    computed by driving all n Miller loops in lockstep over one shared
    accumulator — the per-iteration accumulator squarings are paid once
    for the whole product, not once per pair — followed by a single
    shared final exponentiation (the final powering is multiplicative in
    F_p²). n pairings therefore cost well under n standalone [pair]
    calls. The workhorse of [Bls.verify_batch]. Returns [Fp2.one] on the
    empty list.
    @raise Invalid_argument if any point is the point at infinity. *)

val warmup : Params.t -> unit
(** Force lazily initialised shared state touched by pairing operations
    (fixed-base tables, Montgomery context, cache-counter handles) so that
    worker domains only ever read it. Called at the edge of every parallel
    region; idempotent. *)

val line_and_add :
  Field.t ->
  Curve.point ->
  Curve.point ->
  xq:Fp2.el ->
  yq:Fp2.el ->
  Fp2.el * Fp2.el * Curve.point
(** One reference Miller step: the line through [t] and [u] (tangent when
    equal, vertical when the sum is O — including the 2-torsion tangent)
    and the vertical at [t + u], both evaluated at [(xq, yq)]. Exposed for
    the regression tests. *)

val gt_bytes : Params.t -> Fp2.el -> string
(** Canonical serialization of a GT element, for hashing. *)

val hash_to_group : Params.t -> string -> Curve.point
(** Boneh-Franklin admissible encoding: hash the identity string to y,
    set x = (y² − 1)^(1/3), multiply by the cofactor; retry on degenerate
    outputs. Never returns the point at infinity. *)

val hash_to_scalar : Params.t -> string -> Bigint.t
(** Hash to a nonzero scalar in [\[1, q)]. *)
