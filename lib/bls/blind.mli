(** Blind BLS signatures (paper §9, DoS mitigation).

    The paper proposes rate-limiting mixnet submissions by having servers
    "issue a limited number of blinded signatures to each user every day,
    and reject any requests that don't have a valid unblinded signature";
    blinding keeps the tokens unlinkable to the issuance, so the scheme
    leaks no metadata.

    Construction (Boldyreva-style on our symmetric pairing): to get a
    signature on serial [m] without revealing it, the user sends
    [B = H(m) + r·g]; the signer returns [s·B]; the user removes the
    blinding with [s·B − r·pk = s·H(m)] — an ordinary BLS signature that
    {!Bls.verify} accepts. The signer saw only a uniformly random group
    element. *)

module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve

type blinded = Curve.point
type unblinder = Bigint.t

val blind : Params.t -> Drbg.t -> msg:string -> blinded * unblinder
(** Blind the hash of [msg] with a fresh random factor. *)

val sign_blinded : Params.t -> Bls.secret -> blinded -> Curve.point
(** The signer's side: multiply by the secret key. The signer learns
    nothing about the underlying message. *)

val unblind :
  Params.t -> Bls.public -> signed:Curve.point -> unblinder -> Bls.signature
(** Remove the blinding; the result verifies as a plain BLS signature on
    the original message under the signer's public key. *)

val verify : Params.t -> Bls.public -> msg:string -> Bls.signature -> bool
(** Verification in the blind domain. *)
