(** Ephemeral Diffie-Hellman key exchange over the pairing curve's G1.

    Two uses in Alpenhorn: the [DialingKey] in friend requests, from which
    both clients derive the initial keywheel secret (§4.7), and the
    per-round onion-layer keys between clients and mixnet servers
    (Algorithm 1 step 3).

    Note: G1 on a supersingular curve has MOV reduction to [F_p²], so the
    effective DH security is that of a [~2·|p|]-bit finite field — below the
    128-bit target of the paper's deployment. Acceptable for this
    reproduction; swapping in X25519 would be a drop-in change behind this
    interface. *)

module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params

type secret = Bigint.t
type public = Alpenhorn_pairing.Curve.point

val random_secret : Params.t -> Drbg.t -> secret
(** A secret uniform in [[1, q)]: the one draw {!keygen} makes. *)

val keygen : Params.t -> Drbg.t -> secret * public

val shared_secret : Params.t -> secret -> public -> string
(** 32-byte shared key: KDF of the compressed shared point. Both sides
    compute the same value; never returns the identity encoding for honest
    inputs.
    @raise Invalid_argument if the peer key is the point at infinity. *)

val exchange_batch : Params.t -> (secret * public) array -> (public * string) array
(** [(s, peer)] ↦ [(s·g, shared_secret s peer)] for every job, in order:
    the public half of [s] and the key it shares with [peer], all from
    one {!Params.mul_batch}.
    @raise Invalid_argument if a peer key is the point at infinity. *)

val shared_secret_batch : Params.t -> secret -> public array -> string array
(** {!shared_secret} with every peer, in order, from one
    {!Params.mul_batch}.
    @raise Invalid_argument if a peer key is the point at infinity. *)

val public_bytes : Params.t -> public -> string
val public_of_bytes : Params.t -> string -> public option
(** Rejects malformed encodings, off-curve points and the point at
    infinity. *)

val public_size : Params.t -> int
