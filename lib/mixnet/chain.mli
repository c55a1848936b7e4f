(** The mix pipeline of one chain (§3.1, §6): rotate the round keys, run
    every hop's unwrap/noise/shuffle in chain order, erase the keys, and
    abort the round when any hop is down (anytrust, §4.5). The caller
    distributes the final payloads ({!Mailbox.distribute} or
    {!Mailbox.distribute_sharded}).

    A hop is one chain position behind a transport: {!local} wraps an
    in-process {!Server.t}, and [Alpenhorn_remote.Net_deployment] builds
    hops that call mixer processes. A hop is generic in the value
    ['noise] it needs to make noise, so this library depends on neither
    the IBE scheme nor the protocol's message formats. *)

module Dh = Alpenhorn_dh.Dh
module Trace = Alpenhorn_telemetry.Trace

(** A batch between two hops. Trace contexts ride out of band beside the
    payloads (see {!Server.process_traced}); a hop that cannot carry them
    hands on the payloads alone, so no hop re-boxes the batch. *)
type batch = Traced of (string * Trace.ctx option) array | Plain of string array

val payloads : batch -> string array

(** One chain position; [rotate] and [process] return [None] when its
    server is down. *)
type 'noise hop = {
  rotate : unit -> Dh.public option;  (** a fresh round key pair; its public half *)
  process :
    downstream_pks:Dh.public list ->
    noise_mu:float ->
    laplace_b:float ->
    num_mailboxes:int ->
    noise:'noise ->
    tracer:Trace.t option ->
    batch ->
    (batch * int) option;
      (** unwrap, add noise, shuffle: the outgoing batch and the noise count *)
  erase : unit -> unit;  (** erase the round key, if the server answers *)
  is_up : unit -> bool;
  crash : unit -> unit;  (** go down, losing the round key *)
  restart : unit -> unit;  (** come back up without a round key; a no-op when up *)
}

val local : Server.t -> noise_body:('noise -> Server.noise_body) -> 'noise hop
(** An in-process server; [noise_body] turns the round's noise value into
    the server's noise generator. *)

type 'noise t

exception Aborted of { server : int }
(** The round cannot complete without every server (§4.5), so it aborts
    {e cleanly}: every round key erased, no mailbox published (not even
    partially), a severity-[Error] [mix.round_abort] event logged. The
    caller runs {!recover} and re-runs the round after backoff
    ({!Alpenhorn_core.Deployment} owns that retry loop). *)

val create : 'noise hop array -> 'noise t
(** Hop [i] is chain position [i]. @raise Invalid_argument when empty. *)

val begin_round : 'noise t -> Dh.public list
(** Rotate every hop's round key; the public keys in chain order, for
    clients to onion-wrap against. @raise Aborted when a hop is down. *)

val mix :
  'noise t ->
  noise_mu:float ->
  laplace_b:float ->
  num_mailboxes:int ->
  noise:'noise ->
  ?tracer:Trace.t ->
  (string * Trace.ctx option) array ->
  string array * int * (int * Trace.ctx) list
(** One pass of a batch over the whole chain, without distribution: a
    liveness check of every hop, then each hop's pass in order (a
    [mix.server_process{server=i}] span each, under one [mix.round]),
    then key erasure. Returns the final payloads (mailbox header
    included), the total noise added, and the traced payloads that
    reached a valid mailbox as [(mailbox, ctx)] pairs, [ctx] being the
    [mailbox.publish] span — parent for the recipient's [client.scan].
    @raise Aborted when a hop is down.
    @raise Invalid_argument before {!begin_round}. *)

(** {2 Fault injection and recovery (DESIGN.md §10)} *)

val crash_server : 'noise t -> server:int -> unit
(** The hop at chain position [server] goes down, so the round raises
    {!Aborted}. @raise Invalid_argument on a bad index. *)

val recover : 'noise t -> unit
(** After an abort: erase the round keys if the abort left them, and
    restart every hop that went down. *)
