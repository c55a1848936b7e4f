module Util = Alpenhorn_crypto.Util

let cover = 0xFFFFFFF
let overhead = 4

let encode ~mailbox body =
  if mailbox < 0 || mailbox > cover then invalid_arg "Payload.encode: mailbox";
  Util.be32 mailbox ^ body

let mailbox s =
  if String.length s < overhead then -1
  else match Util.read_be32 s 0 with mb when mb > cover -> -1 | mb -> mb

let decode s =
  match mailbox s with -1 -> None | mb -> Some (mb, String.sub s overhead (String.length s - overhead))
