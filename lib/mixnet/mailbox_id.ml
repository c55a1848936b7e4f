module Sha256 = Alpenhorn_crypto.Sha256

(* the first 8 digest bytes, big-endian, [land max_int] *)
let of_identity email ~num_mailboxes =
  let d = Array.make 8 0 in
  Sha256.digest_words_into d ~prefix:"mailbox" (Bytes.unsafe_of_string email) ~pos:0
    ~len:(String.length email);
  (((d.(0) lsl 32) lor d.(1)) land max_int) mod num_mailboxes
