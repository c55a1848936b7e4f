(** Binary codecs: one value of type ['a t] is both the encoder and the
    total decoder of a wire format (DESIGN.md §13).

    Every codec built from these combinators is

    - {e total}: {!decode} returns [None] on any input that is not exactly
      one encoding, trailing bytes included, and never raises;
    - {e canonical}: [decode c s = Some x] implies [encode c x = s], so
      each value has exactly one encoding. The combinators keep this as
      long as every [map] and [case] pair is mutually inverse.

    Integers are big-endian. Counts and lengths are {!u32}s, bounded on
    both sides, and a count is checked against the bytes left before any
    element is read, so a hostile header cannot make the decoder allocate
    or loop beyond the input's size. Encoding a value outside a format's
    domain (an out-of-range integer, a string of the wrong size) raises
    [Invalid_argument]. *)

type 'a t

val encode : 'a t -> 'a -> string

val decode : 'a t -> string -> 'a option
(** Total; [None] unless the whole string is one encoding. *)

val size : 'a t -> int option
(** The size of every encoding, when the format has one. *)

(** {1 Scalars and bytes} *)

val unit : unit t
(** Zero bytes. *)

val u8 : int t

val max_u32 : int
(** 2^30 − 1: the largest value {!u32} writes or reads, so a decoded
    integer is a non-negative OCaml int on every platform. *)

val u32 : int t
(** Four bytes big-endian, in [\[0, max_u32\]] on both sides. *)

val f64 : float t
(** IEEE-754 bits, eight bytes big-endian. *)

val fixed : int -> string t
(** Exactly [n] bytes. *)

val rest : string t
(** Every remaining byte; only as the last field of a format. *)

val str : string t
(** A {!u32} length, then the bytes. *)

val padded : int -> string t
(** [padded n] (n ≤ 255): a {!u8} length, the bytes, then zeros up to [n]
    bytes; always [1 + n] bytes. Nonzero padding is rejected. *)

(** {1 Sequences and products} *)

val list : 'a t -> 'a list t
(** A {!u32} count, then the elements. *)

val array : 'a t -> 'a array t
(** As {!list}. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val tup3 : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val tup4 : 'a t -> 'b t -> 'c t -> 'd t -> ('a * 'b * 'c * 'd) t

val map : ('a -> 'b option) -> ('b -> 'a) -> 'a t -> 'b t
(** [map inj proj c] reads through [c] then [inj], which rejects with
    [None]; it writes [proj v] through [c]. Canonical when
    [inj a = Some b] implies [proj b = a]: a curve point, for example,
    goes through the curve's own canonical [of_bytes]. *)

(** {1 Tagged unions} *)

type 'a case

val case : int -> 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
(** [case tag c inj proj]: the values [proj] accepts are written as the
    {!u8} [tag] followed by [c]'s encoding. *)

val const : int -> 'a -> 'a case
(** A case with no payload, for one constant (compared with [=]). *)

val union : 'a case list -> 'a t
(** Writes a value through the first case that accepts it; reads the tag
    and then that case. An unknown tag is rejected. *)

val result : 'a t -> 'e t -> ('a, 'e) result t
(** Tag 0 then the [Ok] value, or tag 1 then the [Error] value. *)
