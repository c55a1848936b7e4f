(** Length-prefixed binary framing for the Alpenhorn wire protocol
    (DESIGN.md §13).

    A frame on the wire is [len:u32be · tag:u8 · payload], where [len]
    counts the tag byte plus the payload. The decoder is {e total}:
    attacker-controlled bytes yield a frame, a request for more input, or
    a [Corrupt] verdict — never an exception — and a configurable payload
    ceiling rejects absurd length prefixes before any buffering happens.

    The frame header stays hand-written because it decodes incrementally
    from a receive buffer ([Need_more]). Payloads are {!Alpenhorn_codec.Codec}
    formats: the trace envelope below, and the RPC messages of
    [Alpenhorn_remote.Proto]. *)

type frame = { tag : int; payload : string }

val default_max_payload : int
(** 8 MiB. *)

val encode : ?max_payload:int -> frame -> string
(** @raise Invalid_argument when the tag is outside [0, 255] or the
    payload exceeds the bound. *)

type decode_result =
  | Frame of frame * int  (** decoded frame and the offset just past it *)
  | Need_more  (** a prefix of a valid frame; read more bytes *)
  | Corrupt of string  (** not a frame; the connection should be dropped *)

val decode : ?max_payload:int -> string -> pos:int -> decode_result
(** Decode the frame starting at [pos]. Total: never raises on malformed
    input (a [pos] outside the string is reported as [Corrupt]). *)

val decode_buffer : ?max_payload:int -> Buffer.t -> pos:int -> decode_result
(** {!decode} over a receive buffer. It copies nothing until the buffer
    holds the whole frame its length prefix announces, so reassembling an
    n-byte frame from many reads costs O(n), not a copy per read. *)

val of_string : ?max_payload:int -> string -> frame option
(** Total single-frame decoder: [Some] iff the input is exactly one
    well-formed frame with no trailing bytes. *)

(** {1 Trace envelope (DESIGN.md §14)}

    Cross-process trace propagation rides as a reserved wrapper tag: a
    traced frame is an ordinary frame tagged {!trace_tag} whose payload
    is a label list followed by the {e complete, unmodified} encoding of
    the inner protocol frame. Protocol payload bytes are therefore
    byte-identical with tracing on or off (enforced by test), and trace
    labels exist only in the orchestrator↔server RPC transport — never
    inside onions, friend requests or mailbox entries (the Trace privacy
    invariant, DESIGN.md §9). *)

val trace_tag : int
(** 0xfe — reserved; protocol tags must avoid it (and {!Rpc.error_tag}
    0xff). *)

val encode_traced :
  ?max_payload:int -> ?trace:(string * string) list -> frame -> string
(** With [trace] absent this is exactly {!encode} — not one byte differs.
    With [trace] present, the frame is wrapped in a {!trace_tag} envelope
    carrying the labels. *)

val split_traced : ?max_payload:int -> frame -> ((string * string) list * frame) option
(** Unwrap a {!trace_tag} envelope into its labels and inner frame.
    [None] when the frame is not an envelope, or the envelope is
    malformed (truncated labels, trailing bytes, nested envelope) —
    total, like every decoder here. *)
