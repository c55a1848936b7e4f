(** Server-process logic for the framed RPC protocol (DESIGN.md §13): a
    PKG process and a mixer process, each a state record plus the table of
    {!Proto} operations it serves, dispatched by {!Proto.serve} as a
    [Framing.frame -> Framing.frame] handler for {!Alpenhorn_net.Rpc}.

    Determinism: a server is built by the constructor the in-process
    deployment uses ({!Alpenhorn_core.Deployment.new_pkg},
    {!Alpenhorn_core.Deployment.new_mix_server}), so a multi-process
    deployment reproduces the in-process protocol results —
    same client events, same session keys. Noise bytes differ (each mixer
    samples noise from its own local stream), and so do a respawned
    mixer's round keys and shuffle. *)

module Framing = Alpenhorn_net.Framing
module Params = Alpenhorn_pairing.Params
module Server = Alpenhorn_mixnet.Server
module Config = Alpenhorn_core.Config

(** One PKG plus its simulated email provider (confirmation tokens are
    read back over the {!Proto.pkg_inbox} op). *)
module Pkg_server : sig
  type t

  val create : config:Config.t -> seed:string -> index:int -> t
  (** PKG [index] of an in-process deployment created from the same seed
      ({!Alpenhorn_core.Deployment.new_pkg}). *)

  val handler : t -> Framing.frame -> Framing.frame
  (** {!Proto.serve} over the PKG operations. A request that does not
      decode, or an unknown tag, gets an {!Alpenhorn_net.Rpc.error_tag}
      frame; the handler does not raise on it. *)

  val handler_traced : t -> trace:(string * string) list option -> Framing.frame -> Framing.frame
  (** {!handler}, plus one span per traced request: when the RPC envelope
      carried trace labels, the handler is timed and a span named by the
      operation's {!Proto.rpc} [name] is emitted on
      {!Alpenhorn_telemetry.Telemetry.default} under those labels verbatim
      (span identity is minted only by the orchestrator). Shaped for
      {!Alpenhorn_net.Rpc.Server.create_traced}. *)
end

(** One chain position of {e both} mixnet chains (add-friend and dialing),
    as deployed: a mixer operator runs one process per position. *)
module Mixer_server : sig
  type t

  val create : config:Config.t -> seed:string -> position:int -> t
  (** @raise Invalid_argument when [position] is outside the configured
      chain length. *)

  val handler : t -> Framing.frame -> Framing.frame
  (** As {!Pkg_server.handler}, over the mixer operations. *)

  val handler_traced : t -> trace:(string * string) list option -> Framing.frame -> Framing.frame
  (** As {!Pkg_server.handler_traced}. *)
end
