(** The modified Tate pairing ê : G1 × G1 → GT ⊂ F_p²*.

    [pair params a b] computes [f_{q,a}(φ(b))^((p²−1)/q)] by Miller's
    algorithm, where φ is the distortion map [(x, y) ↦ (ζx, y)]. The
    distortion map makes the pairing symmetric and non-degenerate on G1
    (ê(g, g) ≠ 1), which is what Boneh-Franklin IBE and BLS signatures
    need. Bilinearity: ê(aP, bQ) = ê(P, Q)^{ab}.

    Denominator elimination does not apply at the distorted point (its
    x-coordinate is not in F_p), so every vertical of [pair] stays a
    factor; {!pair_batch} moves the second argument to the trace-zero
    subgroup, where it does apply, for first arguments in G1.

    [pair] runs the Miller loop in Jacobian coordinates over the
    fixed-limb Montgomery kernel ({!Mont}) — no field inversions inside
    the loop, every line scaled by factors in F_p* that the final
    exponentiation kills, verticals multiplied in conjugated rather than
    divided out, and {!final_exp} in place of the full power.
    {!with_prepared}/{!pair_batch} split it for a first argument that
    pairs with many second arguments. [pair_reference] is the affine
    Bigint+Barrett implementation all of them are property-tested
    against.

    Points are read in the Montgomery form {!Curve.point} holds them in,
    and a pairing value stays in that form ({!gt}) until {!gt_bytes}
    writes it out. *)

module Bigint = Alpenhorn_bigint.Bigint

type gt
(** An element of GT ⊂ F_p²*, in Montgomery form. Never written after it
    is returned: the pairing cache hands the same value to every caller. *)

val gt_equal : gt -> gt -> bool
val gt_one : Params.t -> gt

val pair : Params.t -> Curve.point -> Curve.point -> gt
(** @raise Invalid_argument if either argument is the point at infinity
    (those never arise in honest protocol runs; ciphertext decoding rejects
    them earlier). *)

val pair_reference : Params.t -> Curve.point -> Curve.point -> gt
(** Affine [Bigint] reference implementation; agrees with [pair] exactly. *)

val pair_cached : Params.t -> Curve.point -> Curve.point -> gt
(** [pair] through the parameter set's bounded fixed-argument memo
    (FIFO-evicted, one cache per domain so parallel verifies never
    contend). Callers with recurring pairs — IBE encryption to a master
    key, BLS verification against known signers — use this; hit and miss
    counts land on the ["pairing.cache_hits"/"pairing.cache_misses"]
    telemetry counters, and each eviction on ["pairing.cache_evictions"]
    (a counter, not an event: a PKG evicts on most extraction requests,
    and events would crowd its round and fault events out of the ring). *)

type prepared
(** A first argument in G1 with its Miller chain precomputed: every line
    of the loop, divided by its leading coefficient, in a flat table. It
    decrypts exactly as the point does. *)

val with_prepared : Params.t -> Curve.point -> (prepared -> 'a) -> 'a
(** [with_prepared params a f] prepares [a] (a little less work than
    one [pair]),
    runs [f] on it and then zeroes the table, also when [f] raises. The
    table lives in a buffer of the calling domain, borrowed for the
    scope; [f] may hand the key to pool workers, which only read it.
    The chain ends at [q·a], which is O exactly when [a] lies in G1, as
    every identity key does.
    @raise Invalid_argument if [a] is the point at infinity or lies
    outside G1. *)

val pair_batch : prepared -> Curve.point array -> gt array
(** [pair_batch k bs] is [Array.map (pair params a) bs] for the key [k]
    prepared from [a], bit for bit, in order. Each [b = (x, y)] with
    [x ≠ 0] is evaluated at the trace-zero point [φ(b) − π(φ(b))], where
    every vertical of the loop lies in F_p* and is dropped: the loop
    yields [ê(a, b)²], and [ê(a, b) = χ(N(f))·(conj(f)²/N(f))^(6l)] for
    its Miller value [f]. The batch shares one inversion of the [x] and
    one of the final exponentiations' norms; [b = (0, ±1)] (order 3)
    pairs to 1. Counts the batch's evaluations once on the
    ["pairing.prepared_evals"] counter. Pool workers may run batches of
    one key at once.
    @raise Invalid_argument after [k]'s [with_prepared] scope has ended,
    or if some [b] is the point at infinity. *)

val prepared_table : prepared -> int array
(** The table itself, not a copy — exposed so tests can check that the
    scope's release zeroes it. *)

val final_exp : Params.t -> Mont.F2.f2 -> Mont.F2.f2
(** [f^((p²−1)/q)], computed as [(conj(f)²/N(f))^(12l)]: Frobenius is
    conjugation on F_p² because p ≡ 3 (mod 4), so [f^(p−1) =
    conj(f)/f]. Equal to [Mont.F2.pow f tate_exp].
    @raise Division_by_zero on zero. *)

val gt_pow : Params.t -> gt -> Bigint.t -> gt
(** Exponentiation in GT; equal to [Fp2.pow]. *)

val pair_product : Params.t -> (Curve.point * Curve.point) list -> gt
(** [pair_product params \[(a1,b1); …; (an,bn)\]] is [Π ê(ai, bi)],
    computed by driving all n Miller loops in lockstep over one shared
    accumulator — the per-iteration accumulator squarings are paid once
    for the whole product, not once per pair — followed by a single
    shared final exponentiation (the final powering is multiplicative in
    F_p²). n pairings therefore cost well under n standalone [pair]
    calls. The workhorse of [Bls.verify_batch]. Returns {!gt_one} on the
    empty list.
    @raise Invalid_argument if any point is the point at infinity. *)

val warmup : Params.t -> unit
(** Force lazily initialised shared state touched by pairing operations
    (the generator's comb, Montgomery context, cache-counter handles) so that
    worker domains only ever read it. Called at the edge of every parallel
    region; idempotent. *)

val line_and_add :
  Field.t ->
  (Bigint.t * Bigint.t) option ->
  (Bigint.t * Bigint.t) option ->
  xq:Fp2.el ->
  yq:Fp2.el ->
  Fp2.el * Fp2.el * (Bigint.t * Bigint.t) option
(** One step of [pair_reference]'s Miller loop, on affine points as
    {!Curve.coords} gives them ([None] is O): the line through [t] and
    [u] (tangent when equal, vertical when the sum is O — including the
    2-torsion tangent) and the vertical at [t + u], both evaluated at
    [(xq, yq)]. Exposed for the regression tests. *)

val gt_bytes : Params.t -> gt -> string
(** Canonical serialization of a GT element, for hashing: [re || im],
    each a fixed-width big-endian field element. *)

val hash_to_group : Params.t -> string -> Curve.point
(** Boneh-Franklin admissible encoding: hash the identity string to y,
    set x = (y² − 1)^(1/3), multiply by the cofactor; retry on degenerate
    outputs. Never returns the point at infinity. *)

val hash_to_scalar : Params.t -> string -> Bigint.t
(** Hash to a nonzero scalar in [\[1, q)]. *)
