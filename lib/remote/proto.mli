(** The Alpenhorn RPC vocabulary (DESIGN.md §13): one description per
    operation, and the blocking client wrappers and table-driven server
    dispatch that both read it.

    A description ({!rpc}) holds the frame tag, the span name, and the
    {!Alpenhorn_codec.Codec} of the request and of the response, so each
    of the 13 message layouts is written once. Every response reuses its
    request's tag and is a [Codec.result]: status 0 and the body, or
    status 1 and a {!Pkg.error}. {!Alpenhorn_net.Rpc}'s error tag answers
    a request that does not decode, an unknown tag, or a handler crash.
    Group elements travel as canonical bytes and are decoded through the
    curve's own [of_bytes] — peers are never trusted to send well-formed
    points. [now] is explicit wherever the PKG consults a clock, because
    rounds run on the orchestrator's logical clock.

    Client wrappers return [(_, string) result] for transport/peer
    failures; the PKG ops that can fail at the protocol level
    ({!pkg_register}, {!pkg_confirm}, {!pkg_reveal}, {!pkg_extract})
    nest the {!Pkg.error} so the two failure kinds stay distinct. *)

module Codec = Alpenhorn_codec.Codec
module Framing = Alpenhorn_net.Framing
module Rpc = Alpenhorn_net.Rpc
module Params = Alpenhorn_pairing.Params
module Bls = Alpenhorn_bls.Bls
module Ibe = Alpenhorn_ibe.Ibe
module Dh = Alpenhorn_dh.Dh
module Pkg = Alpenhorn_pkg.Pkg

(** A mixer process hosts one chain position of {e both} mixnet chains;
    requests select which. *)
type chain = Af | Dial

type ('q, 'r) rpc = {
  tag : int;
  name : string;  (** span name of the server-side handling, e.g. ["pkg.extract"] *)
  req : 'q Codec.t;
  resp : ('r, Pkg.error) result Codec.t;
}

val pkg_error : Pkg.error Codec.t
(** The error body of a status-1 response: one tag byte per {!Pkg.error}
    case, then the lockout seconds for [Locked_out]. *)

(** {1 The operations}

    Descriptions whose messages carry group elements take the curve; each
    is built once per curve ({!Params.derived}). *)
module Op : sig
  val pkg_info : Params.t -> (unit, Bls.public) rpc
  val pkg_register : Params.t -> (int * string * Bls.public, unit) rpc
  (** [(now, email, pk)]. *)

  val pkg_inbox : (string, string list) rpc
  val pkg_confirm : (int * string * string, unit) rpc
  (** [(now, email, token)]. *)

  val pkg_begin_round : (int, string) rpc
  val pkg_reveal : Params.t -> (int, Ibe.master_public * string) rpc

  val pkg_extract :
    Params.t -> (int * int * string * Bls.signature, Ibe.identity_key * Bls.signature) rpc
  (** [(now, round, email, signature)]. *)

  val pkg_end_round : (int, unit) rpc
  val mix_info : (unit, int * int) rpc
  val mix_new_round : Params.t -> (chain, Dh.public) rpc

  val mix_process :
    Params.t ->
    ( (chain * Dh.public list * float * float) * (int * Ibe.master_public option * string array),
      int * string array )
    rpc
  (** [((chain, downstream_pks, noise_mu, laplace_b), (num_mailboxes,
      mpk_agg, batch))] to [(noise, out)]. [mpk_agg] rides as the empty
      string for [None], otherwise as the point's canonical bytes. *)

  val mix_end_round : (chain, unit) rpc
  val mix_ping : (unit, unit) rpc
end

(** {1 Client side} Each stub is one round trip: an error frame, a
    mismatched tag or a response that does not decode is an [Error]. *)

val pkg_info : Rpc.Client.t -> params:Params.t -> (Bls.public, string) result
(** The PKG's long-term signing key. *)

val pkg_register :
  Rpc.Client.t -> params:Params.t -> now:int -> email:string -> pk:Bls.public ->
  ((unit, Pkg.error) result, string) result

val pkg_inbox : Rpc.Client.t -> email:string -> (string list, string) result
(** Confirmation tokens the PKG's simulated email provider delivered to
    [email], most recent first. *)

val pkg_confirm :
  Rpc.Client.t -> now:int -> email:string -> token:string ->
  ((unit, Pkg.error) result, string) result

val pkg_begin_round : Rpc.Client.t -> round:int -> (string, string) result
(** Returns the commitment to the round's IBE master public key. *)

val pkg_reveal :
  Rpc.Client.t -> params:Params.t -> round:int ->
  ((Ibe.master_public * string, Pkg.error) result, string) result
(** Returns the master public key and the commitment opening. *)

val pkg_extract :
  Rpc.Client.t -> params:Params.t -> now:int -> round:int -> email:string ->
  signature:Bls.signature ->
  ((Ibe.identity_key * Bls.signature, Pkg.error) result, string) result

val pkg_end_round : Rpc.Client.t -> round:int -> (unit, string) result

val mix_info : Rpc.Client.t -> (int * int, string) result
(** [(position, chain_length)]. *)

val mix_new_round : Rpc.Client.t -> params:Params.t -> chain:chain -> (Dh.public, string) result

val mix_process :
  Rpc.Client.t -> params:Params.t -> chain:chain -> downstream_pks:Dh.public list ->
  noise_mu:float -> laplace_b:float -> num_mailboxes:int -> mpk_agg:string ->
  batch:string array -> (string array * int, string) result
(** One unwrap/noise/shuffle hop; returns the outgoing batch and the
    noise count. [mpk_agg] (the serialized aggregate IBE master key)
    is non-empty only for faithful add-friend noise. *)

val mix_end_round : Rpc.Client.t -> chain:chain -> (unit, string) result
val mix_ping : Rpc.Client.t -> (unit, string) result

(** {1 Server side} *)

type handler = Handler : ('q, 'r) rpc * ('q -> ('r, Pkg.error) result) -> handler

val serve : handler list -> Rpc.traced_handler
(** One dispatch over a table of operations. A request answers with its
    handler's result under the request's tag; one that does not decode,
    or carries a tag no handler serves, answers with an
    {!Alpenhorn_net.Rpc.error_tag} frame. When the request arrived with
    trace labels, one span named by the operation's [name] is emitted on
    {!Alpenhorn_telemetry.Telemetry.default} under those labels
    verbatim, even when the handler raises. *)
