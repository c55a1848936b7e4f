(** ChaCha20 stream cipher (RFC 8439).

    Used as the symmetric cipher inside onion layers and the hybrid part of
    IBE FullIdent ciphertexts, and as the core of {!Drbg}. Validated against
    the RFC 8439 block and stream test vectors. The state lives in
    per-domain scratch and the keystream is XORed straight into the
    output, so a block allocates nothing. *)

val block : key:string -> nonce:string -> counter:int -> string
(** One 64-byte keystream block. [key] is 32 bytes, [nonce] 12 bytes. *)

val block_into : key:string -> nonce:string -> counter:int -> Bytes.t -> unit
(** {!block} written into a 64-byte buffer, allocating nothing.
    @raise Invalid_argument unless the buffer is 64 bytes. *)

val xor_stream : key:string -> nonce:string -> ?counter:int -> string -> string
(** Encrypt/decrypt: XOR the input with the keystream starting at [counter]
    (default 1, the RFC convention for AEAD payloads). *)
