(** Whole-chain round orchestration: announce keys, then run every
    server's unwrap/noise/shuffle pass in order. The caller distributes
    the final payloads into mailboxes ({!Mailbox.distribute} or
    {!Mailbox.distribute_sharded}).

    This is the in-process chain of {!Alpenhorn_core.Deployment}; the
    discrete-event simulator drives the same {!Server} objects with
    explicit timing instead. *)

module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params

type t

exception Aborted of { server : int }
(** Raised by {!mix} when a server is down: the anytrust design (§4.5)
    cannot complete a round without every server, so the round aborts
    {e cleanly} — all per-round keys erased, no mailbox published (not
    even partially), a severity-[Error] [mix.round_abort] event logged —
    and the caller re-runs it after backoff ({!Alpenhorn_core.Deployment}
    owns that retry loop). *)

val create : Params.t -> rng:Drbg.t -> chain_length:int -> t
val chain_length : t -> int
val servers : t -> Server.t array

(** {2 Fault injection (DESIGN.md §10)} *)

val crash_server : t -> server:int -> unit
(** {!Server.crash} by chain position: the next (or current) round run
    raises {!Aborted}. @raise Invalid_argument on a bad index. *)

val restart_server : t -> server:int -> unit
val server_down : t -> server:int -> bool

val abort_round : t -> unit
(** Erase every server's round key without processing anything — the
    explicit form of the cleanup {!Aborted} performs. Idempotent. *)

val begin_round : t -> Alpenhorn_dh.Dh.public list
(** Rotate every server's round key; returns the public keys, in chain
    order, for clients to onion-wrap against. *)

val round_pks : t -> Alpenhorn_dh.Dh.public list

val mix :
  t ->
  noise_mu:float ->
  laplace_b:float ->
  num_mailboxes:int ->
  noise_body:Server.noise_body ->
  ?tracer:Alpenhorn_telemetry.Trace.t ->
  (string * Alpenhorn_telemetry.Trace.ctx option) array ->
  string array * int * (int * Alpenhorn_telemetry.Trace.ctx) list
(** One pass of a batch over the whole chain, without distribution: every
    server's unwrap/noise/shuffle in order, then key erasure. Returns the
    final payloads (mailbox header included), the total noise added, and
    the traced payloads that reached a valid mailbox as [(mailbox, ctx)]
    pairs, [ctx] being the [mailbox.publish] span — parent for the
    recipient's [client.scan]. Each submission carries an optional
    out-of-band trace context (see {!Server.process_traced}; contexts never
    touch the wire).
    @raise Aborted when any server is down. *)
