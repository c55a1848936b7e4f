module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve
module Pairing = Alpenhorn_pairing.Pairing

type blinded = Curve.point
type unblinder = Bigint.t

(* Domain separator: blind-signed messages live in a different hash domain
   from ordinary BLS messages, so a blind-signing oracle cannot be abused
   to forge protocol signatures. *)
let message_hash_prefix = "bls-blind"

let hash_msg (params : Params.t) msg = Pairing.hash_to_group params (message_hash_prefix ^ msg)

let blind (params : Params.t) rng ~msg =
  let r = Bigint.add Bigint.one (Drbg.bigint_below rng (Bigint.sub params.q Bigint.one)) in
  let blinded = Curve.add params.fp (hash_msg params msg) (Params.mul_g params r) in
  (blinded, r)

let sign_blinded (params : Params.t) sk blinded = Curve.mul params.fp sk blinded

let unblind (params : Params.t) pk ~signed r =
  Curve.add params.fp signed (Curve.neg params.fp (Curve.mul params.fp r pk))

let verify (params : Params.t) pk ~msg signature =
  (not (Curve.is_infinity pk || Curve.is_infinity signature))
  && Pairing.gt_equal
       (Pairing.pair_cached params signature params.g)
       (Pairing.pair_cached params (hash_msg params msg) pk)
