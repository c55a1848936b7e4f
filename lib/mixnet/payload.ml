module Util = Alpenhorn_crypto.Util

let cover = 0xFFFFFFF
let overhead = 4

let encode ~mailbox body =
  if mailbox < 0 || mailbox > cover then invalid_arg "Payload.encode: mailbox";
  Util.be32 mailbox ^ body

(* the id, or -1 when short or above [cover], which [encode] refuses *)
let id s =
  if String.length s < overhead then -1
  else match Util.read_be32 s 0 with mb when mb > cover -> -1 | mb -> mb

let mailbox s = match id s with -1 -> None | mb -> Some mb

let decode s =
  match id s with -1 -> None | mb -> Some (mb, String.sub s overhead (String.length s - overhead))
