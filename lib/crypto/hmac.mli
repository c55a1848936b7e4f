(** HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).

    HMAC-SHA256 keyed with distinct one-byte labels implements the keywheel
    hash family H1/H2/H3 of the paper (Fig 4); HKDF derives onion-layer and
    session symmetric keys. *)

val hmac_sha256 : key:string -> string -> string
(** 32-byte tag. The key is XORed into one pad buffer, and the inner
    (ipad ‖ msg) and outer (opad ‖ inner) hashes run through one SHA-256
    context. *)

type t
(** An HMAC-SHA256 computation in progress, for a message given in
    pieces: [init], any number of [update]s, then one [finalize]. Equal to
    {!hmac_sha256} of the pieces' concatenation, without building it. *)

val init : key:string -> t
val update : t -> string -> unit

val finalize : t -> string
(** 32-byte tag. The computation must not be used afterwards. *)

val hkdf : ?salt:string -> info:string -> len:int -> string -> string
(** [hkdf ~info ~len ikm]: extract-then-expand, [len <= 255 * 32] bytes
    of output keying material. *)
