(** Boneh-Franklin identity-based encryption with the Fujisaki-Okamoto
    transform (FullIdent), plus Alpenhorn's Anytrust-IBE aggregation (§4.2,
    Appendix A).

    The scheme is ciphertext-anonymous (§4.3): a ciphertext is a uniformly
    random G1 point plus pseudorandom bytes, revealing nothing about the
    recipient identity — the property Alpenhorn relies on for both mailbox
    privacy and mixnet noise generation.

    Anytrust aggregation is plain group linearity: encrypt under the {e sum}
    of the PKGs' master public keys; decrypt with the sum of the per-PKG
    identity keys. Compromising n−1 of n PKGs reveals nothing (Theorem 1 of
    the paper). *)

module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Pairing = Alpenhorn_pairing.Pairing
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve

type master_secret = Bigint.t
type master_public = Curve.point
type identity_key = Curve.point

val setup : Params.t -> Drbg.t -> master_secret * master_public
(** One PKG's master keypair: [s ∈ Z_q*], [s·g]. *)

val master_public_of_secret : Params.t -> master_secret -> master_public

val extract : Params.t -> master_secret -> string -> identity_key
(** [extract params msk id] = [s·H1(id)], the identity private key. *)

val aggregate_public : Params.t -> master_public list -> master_public
(** Sum of master public keys (Anytrust-IBE encryption key). *)

val aggregate_identity : Params.t -> identity_key list -> identity_key
(** Sum of per-PKG identity keys (Anytrust-IBE decryption key). *)

val ciphertext_overhead : Params.t -> int
(** Bytes added to the plaintext: compressed G1 point + 32-byte mask. *)

val encrypt : Params.t -> Drbg.t -> master_public -> id:string -> string -> string
(** FullIdent encryption of an arbitrary-length message to [id]. *)

val decrypt : Params.t -> identity_key -> string -> string option
(** [None] if the ciphertext is malformed, was encrypted to a different
    identity, or fails the Fujisaki-Okamoto consistency check. Constant
    shape regardless of failure mode (mailbox scanning calls this on every
    ciphertext, §3.1 step 6). *)

type prepared_key
(** An identity key prepared for decrypting many ciphertexts
    ({!Alpenhorn_pairing.Pairing.with_prepared}). *)

val with_prepared_key : Params.t -> identity_key -> (prepared_key -> 'a) -> 'a
(** [with_prepared_key params d_id f] runs [f] with [d_id] prepared once
    (somewhat less work than one {!decrypt}) and erases the preparation
    when [f] returns or raises. Worth it from two ciphertexts per key: a
    mailbox scan. *)

val decrypt_prepared : Params.t -> prepared_key -> string -> string option
(** [decrypt] under a prepared key: the same result as [decrypt] with the
    key it was prepared from, at about half the cost. Safe to call from
    several domains at once.
    @raise Invalid_argument if a well-formed ciphertext reaches the
    pairing after the key's [with_prepared_key] scope has ended. *)

val master_public_bytes : Params.t -> master_public -> string
val master_public_of_bytes : Params.t -> string -> master_public option
val identity_key_bytes : Params.t -> identity_key -> string
val identity_key_of_bytes : Params.t -> string -> identity_key option
