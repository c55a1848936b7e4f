module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Hmac = Alpenhorn_crypto.Hmac
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve

type secret = Bigint.t
type public = Curve.point

let keygen (params : Params.t) rng =
  let s = Bigint.add Bigint.one (Drbg.bigint_below rng (Bigint.sub params.q Bigint.one)) in
  (s, Params.mul_g params s)

let shared_secret (params : Params.t) sk peer =
  match peer with
  | Curve.Inf -> invalid_arg "Dh.shared_secret: infinity"
  | _ ->
    let shared = Curve.mul params.fp sk peer in
    Hmac.hkdf ~info:"alpenhorn-dh" ~len:32 (Curve.to_bytes params.fp shared)

let public_bytes (params : Params.t) pk = Curve.to_bytes params.fp pk

let public_of_bytes (params : Params.t) s =
  match Curve.of_bytes params.fp s with
  | None | Some Curve.Inf -> None
  | Some p -> Some p

let public_size (params : Params.t) = Curve.point_bytes params.fp
