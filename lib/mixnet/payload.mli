(** Innermost mixnet payload: destination mailbox id + body (§3.1 step 3).

    The mailbox id is in the clear {e inside} all onion layers, so only the
    last mixnet server sees it. The special id {!cover} marks cover traffic,
    which the last server drops without further processing. *)

val cover : int
(** Mailbox id reserved for cover traffic. *)

val encode : mailbox:int -> string -> string
val decode : string -> (int * string) option
(** [None] when the input is shorter than the id, or the id is above
    {!cover} — exactly the ids {!encode} refuses. *)

val mailbox : string -> int
(** Header-only peek at the mailbox id, or [-1] where {!decode} gives
    [None]. It allocates nothing: the sharded distribution's counting pass
    classifies millions of payloads with it before touching any body
    bytes. *)

val overhead : int
