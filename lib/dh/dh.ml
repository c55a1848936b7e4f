module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Hmac = Alpenhorn_crypto.Hmac
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve

type secret = Bigint.t
type public = Curve.point

let random_secret (params : Params.t) rng =
  Bigint.add Bigint.one (Drbg.bigint_below rng (Bigint.sub params.q Bigint.one))

let keygen (params : Params.t) rng =
  let s = random_secret params rng in
  (s, Params.mul_g params s)

let check_peer peer = if Curve.is_infinity peer then invalid_arg "Dh.shared_secret: infinity"
let kdf (params : Params.t) shared =
  Hmac.hkdf ~info:"alpenhorn-dh" ~len:32 (Curve.to_bytes params.fp shared)

let shared_secret (params : Params.t) sk peer =
  check_peer peer;
  kdf params (Curve.mul params.fp sk peer)

let exchange_batch (params : Params.t) jobs =
  Array.iter (fun (_, peer) -> check_peer peer) jobs;
  let n = Array.length jobs in
  let points =
    Params.mul_batch params (Array.append (Array.map (fun (s, _) -> (s, params.g)) jobs) jobs)
  in
  Array.init n (fun i -> (points.(i), kdf params points.(n + i)))

let shared_secret_batch (params : Params.t) sk peers =
  Array.iter check_peer peers;
  Array.map (kdf params) (Params.mul_batch params (Array.map (fun peer -> (sk, peer)) peers))

let public_bytes (params : Params.t) pk = Curve.to_bytes params.fp pk

let public_of_bytes (params : Params.t) s =
  match Curve.of_bytes params.fp s with
  | Some p when not (Curve.is_infinity p) -> Some p
  | Some _ | None -> None

let public_size (params : Params.t) = Curve.point_bytes params.fp
