(** BLS signatures and same-message multisignatures on the pairing curve.

    Used twice by Alpenhorn: user long-term signing keys (SenderSig on
    friend requests, PKG authentication) and the PKG attestation
    multisignature PKGSigs (§4.5): each PKG signs (id, user long-term key,
    round); the client sums the n signatures into one compact value, and a
    verifier needs only the sum of the PKG public keys. With at least one
    honest PKG, a valid multisignature proves that every PKG — in
    particular the honest one — attested to the binding.

    Rogue-key caveat: multi-verification is only used for the fixed,
    pre-announced set of PKG keys (shipped with the client, §3.3), the
    setting where rogue-key attacks do not apply. *)

module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve

type secret = Bigint.t
type public = Curve.point
type signature = Curve.point

val keygen : Params.t -> Drbg.t -> secret * public
val public_of_secret : Params.t -> secret -> public

val sign : Params.t -> secret -> string -> signature
val verify : Params.t -> public -> string -> signature -> bool

val verify_batch : Params.t -> (public * string * signature) array -> bool
(** Small-exponent batch verification of independent (key, message,
    signature) triples: true iff every triple verifies, except with
    probability ≤ 2⁻⁶³ (over DRBG scalars derived Fiat-Shamir style from
    the whole batch, so no adversarial signature can depend on its own
    scalar) where an invalid batch may pass. Shares a single final
    exponentiation across the batch via {!Pairing.pair_product}, so a
    batch of n costs roughly (n+1) Miller loops + 1 final exponentiation
    instead of 2n pairings. Empty batches verify; singletons defer to
    {!verify}. *)

val aggregate : Params.t -> signature list -> signature
(** Sum of signatures over the {e same} message. *)

val aggregate_public : Params.t -> public list -> public

val verify_multi : Params.t -> public list -> string -> signature -> bool
(** Verify an aggregated same-message multisignature. *)

val public_bytes : Params.t -> public -> string

val public_of_bytes : Params.t -> string -> public option
(** {!Params.g1_of_bytes}: a point outside G1 is rejected, so a signature
    plus a point of small order does not decode. *)

val signature_bytes : Params.t -> signature -> string
val signature_of_bytes : Params.t -> string -> signature option
