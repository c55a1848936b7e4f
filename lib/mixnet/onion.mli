(** Onion encryption for mixnet requests (Algorithm 1, step 3).

    A client wraps its fixed-size request once per mixnet server, innermost
    layer for the last server. Each layer is an ephemeral-DH box: a fresh
    client keypair per layer per message, ChaCha20+HMAC payload under the
    shared secret with that server's {e per-round} public key. Server round
    keys are erased at the end of the round, which is what gives mixnet
    metadata its forward secrecy.

    {b Draw order.} A message's layer secrets are drawn from the DRBG one
    per layer, innermost layer (the last server's) first, each by
    {!Alpenhorn_dh.Dh.random_secret}; nothing else is drawn. {!wrap} draws
    them itself through {!secrets}; {!wrap_batch} takes them already
    drawn, so a caller that draws each message's secrets through
    {!secrets} in message order, interleaved with its own draws, gets the
    bytes of the per-message {!wrap} loop. The batches exist for the
    curve arithmetic: one field inversion per batch, and a comb for a
    round key once enough of the batch's layers share it
    ({!Alpenhorn_pairing.Curve.mul_batch}). *)

module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params

val layer_overhead : Params.t -> int
(** Bytes added per wrap: ephemeral public key + AEAD tag. *)

val secrets : Params.t -> Drbg.t -> layers:int -> Alpenhorn_dh.Dh.secret list
(** One message's [layers] ephemeral secrets in draw order, innermost
    layer first. *)

val wrap_batch :
  Params.t ->
  server_pks:Alpenhorn_dh.Dh.public list ->
  (Alpenhorn_dh.Dh.secret list * string) array ->
  string array
(** Wrap every body for the same chain (first server's layer outermost),
    each under its own {!secrets}.
    @raise Invalid_argument unless every message has one secret per
    server, or if a server key is the point at infinity. *)

val wrap : Params.t -> Drbg.t -> server_pks:Alpenhorn_dh.Dh.public list -> string -> string
(** {!wrap_batch} of one body under freshly drawn {!secrets}. *)

val unwrap_batch : Params.t -> sk:Alpenhorn_dh.Dh.secret -> string array -> string option array
(** {!unwrap} of every onion, in order, with one shared field inversion. *)

val unwrap : Params.t -> sk:Alpenhorn_dh.Dh.secret -> string -> string option
(** Strip one layer with the server's round secret. [None] if malformed or
    not encrypted to this key. *)
