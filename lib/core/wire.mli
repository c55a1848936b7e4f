(** Wire format for friend requests (paper Fig 3) and request sizing.

    Every add-friend request has the same plaintext size (the email field is
    padded to a fixed width), so every IBE ciphertext — and hence every
    onion a client submits — is indistinguishable by length. *)

module Bigint = Alpenhorn_bigint.Bigint
module Params = Alpenhorn_pairing.Params
module Bls = Alpenhorn_bls.Bls
module Dh = Alpenhorn_dh.Dh

type friend_request = {
  sender_email : string;
  sender_key : Bls.public;  (** sender's long-term signing key *)
  sender_sig : Bls.signature;  (** by sender over (email, dialing key, round) *)
  pkg_sigs : Bls.signature;  (** aggregated PKG attestations (PKGSigs) *)
  dialing_key : Dh.public;  (** ephemeral DH half for the keywheel secret *)
  dialing_round : int;  (** keywheel synchronization point (Fig 5) *)
}

val max_email_length : int
(** 64 bytes; longer addresses are rejected at registration. *)

val sender_sig_message : Params.t -> friend_request -> string
(** The bytes [sender_sig] covers: the sender email, the sender's
    long-term key, the ephemeral dialing key, and the dialing round
    (paper Fig 3). Binding the DH half is what stops a malicious server
    from swapping it in transit and mounting the MITM the design rules
    out. *)

val request_plaintext_size : Params.t -> int
(** Fixed size of an encoded friend request before IBE encryption. *)

val request_ciphertext_size : Params.t -> int
(** Size after IBE encryption — what sits in an add-friend mailbox
    (paper §8.6: 244 bytes + IBE ciphertext in the Go prototype). *)

val encode_request : Params.t -> friend_request -> string
(** @raise Invalid_argument if the email exceeds {!max_email_length}. *)

val decode_request : Params.t -> string -> friend_request option
(** Total and canonical: rejects wrong sizes, undecodable points, and
    nonzero email padding — exactly one encoding decodes per request. *)

val dial_token_size : int
(** 32 bytes (the paper's 256-bit dial tokens). *)

val noise_body :
  Params.t ->
  Alpenhorn_crypto.Drbg.t ->
  [ `AddFriend | `Dialing ] ->
  mpk_agg:Alpenhorn_ibe.Ibe.master_public option ->
  mailbox:int ->
  string
(** One noise message body a mixnet server adds, drawn from [rng]: a
    random dial token in dialing rounds; in add-friend rounds a genuine
    IBE encryption of random bytes to a random identity under [mpk_agg]
    (faithful noise, relying on ciphertext anonymity, §4.3), or random
    bytes of {!request_ciphertext_size} when [mpk_agg] is [None]. *)
