module Bigint = Alpenhorn_bigint.Bigint
module Codec = Alpenhorn_codec.Codec
module Util = Alpenhorn_crypto.Util
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve
module Bls = Alpenhorn_bls.Bls
module Dh = Alpenhorn_dh.Dh

type friend_request = {
  sender_email : string;
  sender_key : Bls.public;
  sender_sig : Bls.signature;
  pkg_sigs : Bls.signature;
  dialing_key : Dh.public;
  dialing_round : int;
}

let max_email_length = 64
let dial_token_size = 32

(* The signature must bind the ephemeral dialing key (and the long-term
   key it rides with) to the email and round — otherwise a malicious mix
   server could swap the DH half in transit and the sender signature would
   still verify, exactly the MITM Fig 3 rules out. *)
let sender_sig_message (params : Params.t) r =
  "friend-req" ^ Util.be32 (String.length r.sender_email) ^ r.sender_email
  ^ Bls.public_bytes params r.sender_key
  ^ Dh.public_bytes params r.dialing_key
  ^ Util.be32 r.dialing_round

(* Fixed-width fields only, so every request has one size: the email
   zero-padded to [max_email_length], four points in their canonical
   compressed form, then the round. Built once per curve: the size is
   asked for every cover and noise message. *)
let request =
  Params.derived @@ fun (params : Params.t) ->
  let point of_bytes to_bytes =
    Codec.map (of_bytes params) (to_bytes params) (Codec.fixed (Curve.point_bytes params.fp))
  in
  let signature = point Bls.signature_of_bytes Bls.signature_bytes in
  Codec.(
    map
      (fun ((sender_email, sender_key, sender_sig), (pkg_sigs, dialing_key, dialing_round)) ->
        Some { sender_email; sender_key; sender_sig; pkg_sigs; dialing_key; dialing_round })
      (fun r -> ((r.sender_email, r.sender_key, r.sender_sig), (r.pkg_sigs, r.dialing_key, r.dialing_round)))
      (pair
         (tup3 (padded max_email_length) (point Bls.public_of_bytes Bls.public_bytes) signature)
         (tup3 signature (point Dh.public_of_bytes Dh.public_bytes) u32)))

let request_plaintext_size params = Option.get (Codec.size (request params))

let request_ciphertext_size params =
  request_plaintext_size params + Alpenhorn_ibe.Ibe.ciphertext_overhead params

let encode_request params r =
  if String.length r.sender_email > max_email_length then
    invalid_arg "Wire.encode_request: email too long";
  Codec.encode (request params) r

let decode_request params s = Codec.decode (request params) s

let noise_body params rng mode ~mpk_agg ~mailbox:_ =
  match (mode, mpk_agg) with
  | `Dialing, _ -> Alpenhorn_crypto.Drbg.bytes rng dial_token_size
  | `AddFriend, Some mpk ->
    let id = "noise-" ^ Util.to_hex (Alpenhorn_crypto.Drbg.bytes rng 8) in
    let body = Alpenhorn_crypto.Drbg.bytes rng (request_plaintext_size params) in
    Alpenhorn_ibe.Ibe.encrypt params rng mpk ~id body
  | `AddFriend, None -> Alpenhorn_crypto.Drbg.bytes rng (request_ciphertext_size params)
