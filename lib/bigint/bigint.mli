(** Arbitrary-precision signed integers.

    Replaces [zarith] (unavailable in this sealed environment). Numbers are
    immutable; magnitudes are little-endian arrays of 31-bit limbs so that a
    limb product fits in OCaml's 63-bit native [int].

    This module backs all field arithmetic in the pairing and IBE layers, so
    the operations that matter are [mul], [divmod], [mod_pow] and [mod_inv].
    None of the operations here are constant-time; see {!Alpenhorn_crypto}
    for the timing-sensitivity discussion. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val two : t

val of_int : int -> t

val to_int : t -> int
(** @raise Failure if the value does not fit in a native [int]. *)

val of_string : string -> t
(** Decimal, with optional leading [-]; or hex with [0x] prefix.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation. *)

val to_hex : t -> string
(** Lowercase hex, no [0x] prefix, ["0"] for zero. *)

val of_bytes_be : string -> t
(** Big-endian unsigned magnitude. *)

val to_limbs : t -> int array
(** Little-endian array of 31-bit limbs of the magnitude, no leading zero
    limb ([[||]] for zero). Fresh copy; safe to mutate. *)

val of_limbs : int array -> t
(** Non-negative value from little-endian 31-bit limbs (each in
    [[0, 2^31)]); leading zero limbs are allowed and stripped. *)

val to_bytes_be : ?len:int -> t -> string
(** Big-endian unsigned magnitude of the absolute value, left-padded with
    zero bytes to [len] when given.
    @raise Invalid_argument if the value needs more than [len] bytes. *)

(** {1 Comparisons} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val is_even : t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < |b|]
    (Euclidean remainder, always non-negative).
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val pow : t -> int -> t
(** [pow a n] for [n >= 0]. @raise Invalid_argument on negative exponent. *)

(** {1 Bit operations} *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
val testbit : t -> int -> bool
val numbits : t -> int
(** Number of significant bits of the magnitude; 0 for zero. *)

(** {1 Modular arithmetic} *)

val mod_pow : t -> t -> t -> t
(** [mod_pow base exp m] = [base^exp mod m] for [exp >= 0], [m > 0]. *)

val mod_inv : t -> t -> t
(** [mod_inv a m] is the inverse of [a] modulo [m].
    @raise Division_by_zero if [gcd a m <> 1]. *)

val gcd : t -> t -> t

(** {1 Number theory} *)

val is_probable_prime : ?rounds:int -> rand:(bits:int -> t) -> t -> bool
(** Miller-Rabin with 2 and 3 as fixed bases plus [rounds] random bases drawn
    from [rand] (default 24). *)

val random_bits : rand_bytes:(int -> string) -> int -> t
(** Uniform in [\[0, 2^bits)]. *)

val random_below : rand_bytes:(int -> string) -> t -> t
(** Uniform in [\[0, bound)] by rejection sampling. [bound > 0]. *)
