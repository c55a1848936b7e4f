(** Pairing parameter sets (Boneh-Franklin style).

    A parameter set fixes a prime group order [q], a field prime
    [p = 12·l·q − 1] (hence [p ≡ 11 (mod 12)]), the curve
    [E : y² = x³ + 1 / F_p], a generator [g] of the order-q subgroup G1,
    a primitive cube root of unity [ζ ∈ F_p² \ F_p] for the distortion map
    [φ(x,y) = (ζx, y)], and the reduced-Tate final exponent [(p² − 1)/q].

    [production] targets the paper's ballpark (BN-256 had a 256-bit group
    order); [test] is small and fast for unit tests. Both are pregenerated
    and revalidated on first use. *)

module Bigint = Alpenhorn_bigint.Bigint

type pair_cache = {
  pc_table : (string, Mont.F2.f2) Hashtbl.t; (* fixed-argument pairing memo, see Pairing.pair_cached *)
  pc_fifo : string Queue.t; (* insertion order, for bounded eviction *)
}

(** The constants of {!Pairing}'s distortion map and trace-zero
    evaluation, in the field's Montgomery form. *)
type consts = {
  zeta_m : Mont.F2.f2; (* ζ *)
  inv_zeta_im : Mont.el; (* the inverse of ζ's imaginary part *)
  half_cofactor : Bigint.t; (* 6·l, the power of the trace-zero final exponentiation *)
}

type t = {
  fp : Field.t;
  q : Bigint.t; (* prime order of G1 *)
  cofactor : Bigint.t; (* 12·l, with p + 1 = 12·l·q *)
  zeta : Fp2.el; (* primitive cube root of unity, distortion map; for set-up and the reference *)
  g : Curve.point; (* generator of G1 *)
  tate_exp : Bigint.t; (* (p² − 1) / q *)
  g_table : Curve.Comb.t Lazy.t; (* comb for g, scalars below 2^numbits(q) *)
  consts : consts Lazy.t; (* read through [consts] *)
  table_mu : Mutex.t; (* guards first forcing of the lazy tables *)
  pair_cache : pair_cache Domain.DLS.key; (* per-domain, so parallel verifies never contend *)
}

val mul_g : t -> Bigint.t -> Curve.point
(** [k·g] through the generator's comb (w = 8, built lazily on first
    use) — every keygen / IBE ephemeral / blinding factor computes this. *)

val mul_batch : t -> (Bigint.t * Curve.point) array -> Curve.point array
(** {!Curve.mul_batch} with the generator's comb: jobs on [g] walk it
    whatever their number. *)

val consts : t -> consts
(** The Montgomery constants, built on first use. *)

val g1_of_bytes : t -> string -> Curve.point option
(** {!Curve.of_bytes}, then the subgroup check [q·P = O]: [None] unless
    the point lies in G1 (infinity does). The decoder of BLS keys and
    signatures and of IBE keys; the check costs a scalar multiplication
    by q (2 507 Montgomery multiplications on the production curve). *)

val force_tables : t -> unit
(** Force the lazily built shared tables (the comb for [g], the
    Montgomery constants and the field's Montgomery context) before handing the parameter set to
    multiple domains.  Forcing the same lazy concurrently from two domains
    raises; the parallel wiring (Server/Pkg/Client) calls this at the edge
    of every parallel region. Idempotent and cheap once forced. *)

val generate : Alpenhorn_crypto.Drbg.t -> qbits:int -> t
(** Generate a fresh parameter set with a [qbits]-bit prime group order. *)

val validate : t -> unit
(** Check all structural invariants. @raise Failure on any violation. *)

val test : unit -> t
(** Small (64-bit q) parameters for fast tests. Memoized. *)

val production : unit -> t
(** Full-size (225-bit q, ~260-bit p) parameters. Memoized. *)

val of_named : string -> t
(** ["test"] or ["production"]. @raise Invalid_argument otherwise. *)

val derived : (t -> 'a) -> t -> 'a
(** [derived f] computes [f p] once per parameter set [p] (told apart by
    physical equality, which the memoized sets keep), for values such as
    codecs that would otherwise be rebuilt on every call. Safe across
    domains: a lost race only computes [f p] twice. *)
