module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Sha256 = Alpenhorn_crypto.Sha256
module Hmac = Alpenhorn_crypto.Hmac
module Chacha20 = Alpenhorn_crypto.Chacha20
module Util = Alpenhorn_crypto.Util
module Pairing = Alpenhorn_pairing.Pairing
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve
module Field = Alpenhorn_pairing.Field

type master_secret = Bigint.t
type master_public = Curve.point
type identity_key = Curve.point

let setup (params : Params.t) rng =
  let s = Bigint.add Bigint.one (Drbg.bigint_below rng (Bigint.sub params.q Bigint.one)) in
  (s, Params.mul_g params s)

let master_public_of_secret (params : Params.t) s = Params.mul_g params s

let extract (params : Params.t) s id = Curve.mul params.fp s (Pairing.hash_to_group params id)

let aggregate_public (params : Params.t) pubs =
  List.fold_left (Curve.add params.fp) Curve.infinity pubs

let aggregate_identity = aggregate_public

(* FullIdent random oracles, all derived from SHA-256 with distinct labels. *)
let h2 gt_bytes = Sha256.digest ("bf-h2" ^ gt_bytes) (* GT -> 32-byte mask *)

let h3 (params : Params.t) sigma msg =
  (* (σ, m) -> scalar in [1, q): the FO encryption randomness *)
  Pairing.hash_to_scalar params ("bf-h3" ^ sigma ^ msg)

let h4 sigma = Sha256.digest ("bf-h4" ^ sigma) (* σ -> symmetric key *)

let stream_nonce = String.make 12 '\000'

let ciphertext_overhead (params : Params.t) = Curve.point_bytes params.fp + 32

let encrypt (params : Params.t) rng mpk ~id msg =
  let fp = params.fp in
  let sigma = Drbg.bytes rng 32 in
  let r = h3 params sigma msg in
  let u = Params.mul_g params r in
  (* e(H(id), mpk) is fixed per (recipient, PKG) — every request to the
     same master key hits the pairing cache *)
  let g_id = Pairing.pair_cached params (Pairing.hash_to_group params id) mpk in
  let mask = h2 (Pairing.gt_bytes params (Pairing.gt_pow params g_id r)) in
  let v = Util.xor sigma mask in
  let w = Chacha20.xor_stream ~key:(h4 sigma) ~nonce:stream_nonce msg in
  Curve.to_bytes fp u ^ v ^ w

(* [pair_u u] is e(d_id, U) for the decrypting key *)
let decrypt_with (params : Params.t) pair_u ctxt =
  let fp = params.fp in
  let pb = Curve.point_bytes fp in
  if String.length ctxt < pb + 32 then None
  else begin
    match Curve.of_bytes fp (String.sub ctxt 0 pb) with
    | None | Some Curve.Inf -> None
    | Some u ->
      let v = String.sub ctxt pb 32 in
      let w = String.sub ctxt (pb + 32) (String.length ctxt - pb - 32) in
      let mask = h2 (Pairing.gt_bytes params (pair_u u)) in
      let sigma = Util.xor v mask in
      let msg = Chacha20.xor_stream ~key:(h4 sigma) ~nonce:stream_nonce w in
      let r = h3 params sigma msg in
      (* Fujisaki-Okamoto consistency check: U must equal rP *)
      if Curve.equal u (Params.mul_g params r) then Some msg else None
  end

let decrypt (params : Params.t) d_id ctxt =
  if Curve.equal d_id Curve.Inf then None else decrypt_with params (Pairing.pair params d_id) ctxt

(* None for the point at infinity, which decrypts nothing *)
type prepared_key = Pairing.prepared option

let with_prepared_key (params : Params.t) d_id f =
  if Curve.equal d_id Curve.Inf then f None
  else Pairing.with_prepared params d_id (fun k -> f (Some k))

let decrypt_prepared (params : Params.t) key ctxt =
  match key with
  | None -> None
  | Some k -> decrypt_with params (Pairing.pair_prepared k) ctxt

let master_public_bytes (params : Params.t) pk = Curve.to_bytes params.fp pk
let master_public_of_bytes (params : Params.t) s = Curve.of_bytes params.fp s
let identity_key_bytes = master_public_bytes
let identity_key_of_bytes = master_public_of_bytes
