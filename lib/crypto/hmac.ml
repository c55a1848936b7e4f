let block_size = 64

(* [pad] holds the outer pad, key ⊕ 0x5c…, while the inner hash runs *)
type t = { ctx : Sha256.ctx; pad : Bytes.t }

let init ~key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let pad = Bytes.make block_size '\x36' in
  for i = 0 to String.length key - 1 do
    Bytes.set pad i (Char.chr (Char.code key.[i] lxor 0x36))
  done;
  let ctx = Sha256.init () in
  Sha256.update_bytes ctx pad 0 block_size;
  (* 0x36 ⊕ 0x6a = 0x5c turns the inner pad into the outer one *)
  for i = 0 to block_size - 1 do
    Bytes.set pad i (Char.chr (Char.code (Bytes.get pad i) lxor 0x6a))
  done;
  { ctx; pad }

let update t msg = Sha256.update t.ctx msg

let finalize t =
  let inner = Sha256.finalize t.ctx in
  Sha256.reset t.ctx;
  Sha256.update_bytes t.ctx t.pad 0 block_size;
  Sha256.update t.ctx inner;
  Sha256.finalize t.ctx

let hmac_sha256 ~key msg =
  let t = init ~key in
  update t msg;
  finalize t

let hkdf_extract ~salt ~ikm = hmac_sha256 ~key:salt ikm

let hkdf_expand ~prk ~info ~len =
  if len > 255 * 32 then invalid_arg "Hmac.hkdf_expand: len";
  let buf = Buffer.create len in
  let t = ref "" in
  let i = ref 1 in
  while Buffer.length buf < len do
    (* T(i) = HMAC(prk, T(i-1) ‖ info ‖ i) *)
    let h = init ~key:prk in
    update h !t;
    update h info;
    update h (String.make 1 (Char.chr !i));
    t := finalize h;
    Buffer.add_string buf !t;
    incr i
  done;
  Buffer.sub buf 0 len

let hkdf ?salt ~info ~len ikm =
  let salt = match salt with Some s -> s | None -> String.make 32 '\000' in
  hkdf_expand ~prk:(hkdf_extract ~salt ~ikm) ~info ~len
