(** Quadratic extension [F_p² = F_p(i)] with [i² = -1].

    Valid because the parameter family fixes [p ≡ 3 (mod 4)]. This is the
    target field of the Tate pairing: GT is the order-q subgroup of
    [F_p²*]. *)

module Bigint = Alpenhorn_bigint.Bigint

type el = { re : Bigint.t; im : Bigint.t }

val zero : el
val one : el

val make : Bigint.t -> Bigint.t -> el
val of_fp : Bigint.t -> el

val equal : el -> el -> bool
val is_zero : el -> bool
val in_base_field : el -> bool

val add : Field.t -> el -> el -> el
val sub : Field.t -> el -> el -> el
val mul : Field.t -> el -> el -> el
val sqr : Field.t -> el -> el
val mul_fp : Field.t -> el -> Bigint.t -> el
val conj : Field.t -> el -> el
val inv : Field.t -> el -> el
(** @raise Division_by_zero on zero. *)

val pow : Field.t -> el -> Bigint.t -> el

val to_bytes : Field.t -> el -> string
(** [re || im], each fixed width. *)

val of_bytes : Field.t -> string -> el option
(** Total decoder: [None] on wrong width or non-canonical components. *)
