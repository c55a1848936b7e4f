(** SHA-256 (FIPS 180-4), pure OCaml.

    Used for keywheel hashes, Bloom filter indices, mailbox assignment,
    IBE random oracles and HMAC. Validated against RFC 6234 test vectors
    and known answers for every message length from 0 to 130 bytes.

    A 32-bit word is a native [int] in [\[0, 2^32)]; the compression masks
    a word once, when a sum becomes a word again. It is straight-line
    code, generated at build time by [lib/crypto/gen/gen_sha256.ml]: the
    message words and the schedule are locals, not an array. The padded
    block of the one-block entry lives in a scratch record owned by the
    kernel, one per domain ([Domain.DLS]), so a context is just its eight
    state words, its partial block and its length. Any
    number of domains may hash at once; one context must not be updated
    from two domains at once. Hashing allocates nothing but the contexts
    it creates and the digest strings it returns. Not constant-time (see
    {!Alpenhorn_crypto}).

    The one-block entry {!digest_words_into} hashes a prefix followed by
    a slice of a buffer, and writes the eight digest words into the
    caller's array instead of building a string: a message of at most 55
    bytes is padded in the scratch block and compressed once. The Bloom
    filter's index derivation and mailbox assignment hash every dial
    token and identity this way, and {!digest} of a short string too. *)

type ctx

val init : unit -> ctx

val reset : ctx -> unit
(** Restart a context on the empty message, so one context can run
    several hashes in turn (HMAC's inner and outer hash). *)

val update : ctx -> string -> unit

val update_bytes : ctx -> bytes -> int -> int -> unit
(** [update_bytes ctx buf off len] hashes [buf[off, off+len)]. Raises
    [Invalid_argument] when the range is not inside [buf]. *)

val finalize : ctx -> string
(** 32-byte digest. The context must not be updated again until {!reset}. *)

val digest : string -> string
(** One-shot hash of a full string; 32 bytes. *)

val digest_words_into : int array -> prefix:string -> bytes -> pos:int -> len:int -> unit
(** [digest_words_into dst ~prefix buf ~pos ~len] writes the digest of
    [prefix ^ buf[pos, pos+len)] as eight big-endian words into
    [dst.(0) .. dst.(7)]: word [i] is digest bytes [4i .. 4i+3], in
    [\[0, 2^32)]. When [String.length prefix + len <= 55] (the message,
    its 0x80 byte and its 8-byte length fit one block) this is one
    compression and allocates nothing; a longer message streams through a
    fresh context. Raises [Invalid_argument] when [dst] has
    fewer than 8 entries or the slice is not inside [buf]. *)
