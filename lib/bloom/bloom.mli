(** Bloom filter encoding of dialing mailboxes (paper §5.2).

    The last mixnet server packs each dialing mailbox's 32-byte dial tokens
    into a Bloom filter so clients download ~48 bits per token instead of
    256. Parameters follow the paper: target false-positive rate 1e-10,
    which at the optimal operating point costs ~48 bits and ~33 hash
    functions per element. No false negatives: a call is never missed.

    Index derivation is deterministic from the element bytes, so the
    server that builds the filter and the client that queries it need no
    shared state beyond the filter itself. For an element [e] and a filter
    of [nbits] bits and [k] hash functions:
    - [d = SHA-256("bloom" ‖ e)];
    - [h1] is [d\[0..7\]] read as a big-endian 64-bit integer, keeping its
      low 62 bits (OCaml's [land max_int]);
    - [h2] is [d\[8..15\]] read the same way, plus 1 when
      [h2 mod nbits = 0];
    - index [i], for [0 <= i < k], is [abs (h1 + i*h2) mod nbits], the sum
      and product wrapping modulo 2^63 as OCaml's native ints do, then
      read as a signed 63-bit integer;
    - bit [j] of the filter is bit [j mod 8] (least significant first) of
      byte [j / 8] of the bit array.

    [abs min_int] is negative: an index that lands there (a chance of
    about 2^-63) makes {!add} and {!mem} raise [Invalid_argument] rather
    than touch memory outside the filter. [k] is at most {!max_hashes}.

    An element of at most 50 bytes (dial tokens are 32) costs one SHA-256
    compression and no allocation: the digest words land in a
    domain-local array and feed the index loops directly. Longer elements
    stream through a SHA-256 context first. {!add} sets all [k] bits
    without testing them, so its loop has no data-dependent branch (on a
    filter about half full, a test before each set mispredicts about
    every other bit); {!mem} stops at the first clear bit. *)

type t

val target_fp_rate : float
(** 1e-10, the paper's setting. *)

val bits_per_element : int
(** 48, the paper's setting. *)

val create : expected_elements:int -> t
(** Filter sized for [expected_elements] at the paper's operating point.
    At least one element is always provisioned. *)

val max_hashes : int
(** 64: the most hash functions a filter may use, so a decoded header
    cannot ask for unbounded work per lookup. *)

val create_custom : bits:int -> hashes:int -> t
(** Explicit geometry, for ablations. Raises [Invalid_argument] unless
    [bits > 0] and [0 < hashes <= max_hashes]. *)

val add : t -> string -> unit
val mem : t -> string -> bool

val add_sub : t -> bytes -> pos:int -> len:int -> unit
(** [add] of the slice [buf[pos, pos+len)], hashed by streaming — no
    substring allocation. Byte-compatible with [add (Bytes.sub_string buf
    pos len)]; the flat-buffer sharded distribution path at 1M+ tokens. *)

val mem_sub : t -> bytes -> pos:int -> len:int -> bool
(** Slice variant of [mem]; see {!add_sub}. *)

val size_bits : t -> int
val size_bytes : t -> int
val num_hashes : t -> int
val count : t -> int
(** Number of elements added. *)

val to_bytes : t -> string
(** Wire format: geometry header + bit array. *)

val of_bytes : string -> t option
(** [None] on a short or inconsistent encoding, or a hash count outside
    [\[1, max_hashes\]]. *)

val false_positive_estimate : t -> float
(** Expected FP rate at the current load. *)
