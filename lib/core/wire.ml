module Bigint = Alpenhorn_bigint.Bigint
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

let point_size (params : Params.t) = Curve.point_bytes params.fp

let request_plaintext_size params = 1 + max_email_length + (4 * point_size params) + 4

let request_ciphertext_size params =
  request_plaintext_size params + Alpenhorn_ibe.Ibe.ciphertext_overhead params

let encode_request (params : Params.t) r =
  let n = String.length r.sender_email in
  if n > max_email_length then invalid_arg "Wire.encode_request: email too long";
  let buf = Buffer.create (request_plaintext_size params) in
  Buffer.add_char buf (Char.chr n);
  Buffer.add_string buf r.sender_email;
  Buffer.add_string buf (String.make (max_email_length - n) '\000');
  Buffer.add_string buf (Bls.public_bytes params r.sender_key);
  Buffer.add_string buf (Bls.signature_bytes params r.sender_sig);
  Buffer.add_string buf (Bls.signature_bytes params r.pkg_sigs);
  Buffer.add_string buf (Dh.public_bytes params r.dialing_key);
  Buffer.add_string buf (Util.be32 r.dialing_round);
  Buffer.contents buf

let decode_request (params : Params.t) s =
  let ps = point_size params in
  if String.length s <> request_plaintext_size params then None
  else begin
    let n = Char.code s.[0] in
    if n > max_email_length then None
    else begin
      (* canonicality: the padding after the email must be all-zero, so
         exactly one encoding decodes to a given request (no covert
         channel, no signature-stripping games via padding malleability) *)
      let padding_zero = ref true in
      for i = 1 + n to max_email_length do
        if s.[i] <> '\000' then padding_zero := false
      done;
      if not !padding_zero then None
      else begin
      let sender_email = String.sub s 1 n in
      let off = 1 + max_email_length in
      let field i = String.sub s (off + (i * ps)) ps in
      let ( let* ) = Option.bind in
      let* sender_key = Bls.public_of_bytes params (field 0) in
      let* sender_sig = Bls.signature_of_bytes params (field 1) in
      let* pkg_sigs = Bls.signature_of_bytes params (field 2) in
      let* dialing_key = Dh.public_of_bytes params (field 3) in
      let dialing_round = Util.read_be32 s (off + (4 * ps)) in
      Some { sender_email; sender_key; sender_sig; pkg_sigs; dialing_key; dialing_round }
      end
    end
  end

let noise_body params rng mode ~mpk_agg ~mailbox:_ =
  match (mode, mpk_agg) with
  | `Dialing, _ -> Alpenhorn_crypto.Drbg.bytes rng dial_token_size
  | `AddFriend, Some mpk ->
    let id = "noise-" ^ Util.to_hex (Alpenhorn_crypto.Drbg.bytes rng 8) in
    let body = Alpenhorn_crypto.Drbg.bytes rng (request_plaintext_size params) in
    Alpenhorn_ibe.Ibe.encrypt params rng mpk ~id body
  | `AddFriend, None -> Alpenhorn_crypto.Drbg.bytes rng (request_ciphertext_size params)
