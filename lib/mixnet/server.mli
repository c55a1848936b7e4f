(** One mixnet server (Vuvuzela design, §6).

    Each round, a server: announces a fresh DH public key; receives a batch
    of onions; strips its layer; adds Laplace-distributed noise addressed to
    every mailbox (wrapped for the rest of the chain, so downstream servers
    cannot tell noise from real traffic); applies a secret uniformly random
    permutation; and forwards. At the end of the round the server erases its
    round secret key — the forward-secrecy step.

    Anytrust: as long as one server's permutation and round key stay secret,
    the adversary cannot link an entering onion to an exiting payload. *)

module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params

type t

type noise_body = mailbox:int -> string
(** Generator for one noise message body destined to [mailbox]. *)

val create : Params.t -> rng:Drbg.t -> position:int -> chain_length:int -> t
(** [position] is 0-based within the chain. *)

(** {2 Fault injection (DESIGN.md §10)} *)

val crash : t -> unit
(** Take the server down: it refuses to process until {!restart}, and its
    round key is erased immediately so an aborted round can never resume
    with stale keys (anytrust failure mode, §4.5). Idempotent. *)

val restart : t -> unit
(** Bring a crashed server back. It has no round key until the next
    {!new_round}. Idempotent. *)

val is_down : t -> bool

val new_round : t -> Alpenhorn_dh.Dh.public
(** Rotate the round keypair and return the public half.
    @raise Invalid_argument if the server is down. *)

val round_public : t -> Alpenhorn_dh.Dh.public option

val process :
  t ->
  downstream_pks:Alpenhorn_dh.Dh.public list ->
  noise_mu:float ->
  laplace_b:float ->
  num_mailboxes:int ->
  noise_body:noise_body ->
  string array ->
  string array * int
(** Unwrap, add noise, shuffle. [downstream_pks] are the round keys of the
    servers after this one (empty for the last). Returns the outgoing batch
    and the number of noise messages added. Onions that fail to decrypt are
    dropped (client DoS resilience, §3.3) and logged as a
    [mix.decode_failure] event.

    {b Draw order.} The server's DRBG gives, per mailbox in order, its
    noise count ({!Mailbox.noise_count}), then per noise message its body
    ([noise_body] is called here, so its own draws interleave) and its
    layer secrets ({!Onion.secrets}), then the shuffle. This is the order
    of a loop that wraps each message with {!Onion.wrap} as it goes; the
    noise is wrapped in batches of a few hundred messages instead
    ({!Onion.wrap_batch}), and the inbound batch is unwrapped in chunks
    ({!Onion.unwrap_batch}), which draw nothing. *)

val process_traced :
  t ->
  downstream_pks:Alpenhorn_dh.Dh.public list ->
  noise_mu:float ->
  laplace_b:float ->
  num_mailboxes:int ->
  noise_body:noise_body ->
  ?tracer:Alpenhorn_telemetry.Trace.t ->
  (string * Alpenhorn_telemetry.Trace.ctx option) array ->
  (string * Alpenhorn_telemetry.Trace.ctx option) array * int
(** Like {!process}, but each onion carries an optional trace context
    {e out of band} — an OCaml value riding alongside the wire bytes, never
    serialized into them (DESIGN.md §9). A sampled message gets a [mix.hop]
    span at this server and its child context follows the unwrapped inner
    onion into the output. Noise entries carry no context. The DRBG stream
    (noise sampling, onion wrapping, shuffle) is identical to {!process},
    so wire bytes are unchanged whether or not tracing is enabled. *)

val end_round : t -> unit
(** Erase the round secret key. [process] after [end_round] raises. *)
