module Params = Alpenhorn_pairing.Params
module Bigint = Alpenhorn_bigint.Bigint
module Bls = Alpenhorn_bls.Bls
module Curve = Alpenhorn_pairing.Curve
module Aead = Alpenhorn_crypto.Aead
module Hmac = Alpenhorn_crypto.Hmac
module Sha256 = Alpenhorn_crypto.Sha256
module Codec = Alpenhorn_codec.Codec

type identity_backup = {
  email : string;
  signing_secret : Bigint.t;
  pinned : (string * Bls.public) list;
}

let magic = "ALPENHORN-BACKUP-1"

(* Iterated-hash passphrase stretching (PBKDF-ish; deliberately slow). *)
let stretch ~passphrase ~salt =
  let acc = ref (Sha256.digest (salt ^ passphrase)) in
  for _ = 1 to 10_000 do
    acc := Sha256.digest (!acc ^ passphrase)
  done;
  Hmac.hkdf ~salt ~info:"alpenhorn-backup" ~len:32 !acc

(* The signing secret rides as its minimal big-endian bytes: a leading
   zero byte would be a second blob restoring the same identity. Pinned
   keys must be points other than infinity. *)
let plain (params : Params.t) =
  let secret =
    Codec.map
      (fun s ->
        let x = Bigint.of_bytes_be s in
        if Bigint.to_bytes_be x = s then Some x else None)
      (fun x -> Bigint.to_bytes_be x)
      Codec.str
  in
  let key =
    Codec.map
      (fun s ->
        match Bls.public_of_bytes params s with
        | Some k when not (Curve.is_infinity k) -> Some k
        | Some _ | None -> None)
      (Bls.public_bytes params) Codec.str
  in
  Codec.(
    map
      (fun (m, email, signing_secret, pinned) ->
        if m = magic then Some { email; signing_secret; pinned } else None)
      (fun b -> (magic, b.email, b.signing_secret, b.pinned))
      (tup4 str str secret (list (pair str key))))

let encode_plain params ~email ~signing_secret ~pinned =
  Codec.encode (plain params) { email; signing_secret; pinned }

let decode_plain params s = Codec.decode (plain params) s

let export_identity params ~passphrase ~email ~signing_secret ~pinned =
  (* deterministic salt/nonce from the content keeps the module free of an
     RNG dependency; a given backup is stable across exports *)
  let plain = encode_plain params ~email ~signing_secret ~pinned in
  let salt = String.sub (Sha256.digest ("backup-salt" ^ email)) 0 16 in
  let key = stretch ~passphrase ~salt in
  let nonce = String.sub (Sha256.digest ("backup-nonce" ^ plain)) 0 12 in
  salt ^ nonce ^ Aead.seal ~key ~nonce ~ad:magic plain

let import_identity params ~passphrase blob =
  if String.length blob < 16 + 12 + Aead.overhead then None
  else begin
    let salt = String.sub blob 0 16 in
    let nonce = String.sub blob 16 12 in
    let body = String.sub blob 28 (String.length blob - 28) in
    let key = stretch ~passphrase ~salt in
    match Aead.open_ ~key ~nonce ~ad:magic body with
    | None -> None
    | Some plain -> decode_plain params plain
  end
