let overhead = 16

let mac_key ~key ~nonce =
  let h = Hmac.init ~key in
  Hmac.update h "aead-mac";
  Hmac.update h nonce;
  Hmac.finalize h

(* HMAC(mac_key, be64 |ad| ‖ ad ‖ body), truncated to 16 bytes *)
let tag ~key ~nonce ~ad body =
  let h = Hmac.init ~key:(mac_key ~key ~nonce) in
  Hmac.update h (Util.be64 (String.length ad));
  Hmac.update h ad;
  Hmac.update h body;
  String.sub (Hmac.finalize h) 0 16

let seal ~key ~nonce ?(ad = "") msg =
  let body = Chacha20.xor_stream ~key ~nonce msg in
  body ^ tag ~key ~nonce ~ad body

let open_ ~key ~nonce ?(ad = "") ctxt =
  let n = String.length ctxt in
  if n < overhead then None
  else begin
    let body = String.sub ctxt 0 (n - overhead) in
    let t = String.sub ctxt (n - overhead) overhead in
    if Util.const_time_eq t (tag ~key ~nonce ~ad body) then
      Some (Chacha20.xor_stream ~key ~nonce body)
    else None
  end
