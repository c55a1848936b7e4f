(** The RPC backend of {!Alpenhorn_core.Deployment}: the same rounds,
    with the PKGs and mixnet servers reached over framed TCP RPC
    ({!Proto}) instead of function calls.

    Clients live in the orchestrator process — the client library is
    transport-agnostic — while each PKG and each mixnet chain position is
    a separate server ({!Fleet} starts them as [alpenhorn_cli serve-pkg]
    / [serve-mixer] processes or as RPC servers on domains).
    Each mixer is one hop of both {!Alpenhorn_mixnet.Chain}s, so the
    orchestrator relays each batch through the mixers with the in-process
    mix pipeline, its telemetry included, and distributes the final
    payloads itself.

    {b Determinism.} Built from the same seed, this deployment reproduces
    the in-process one's round stats — the same per-client events and
    session keys, round for round — provided both run the same fault
    schedule ({!Fleet.check}). Noise bytes differ, and so do a respawned
    mixer's round keys and shuffle; no client result depends on them, as
    a client processes its add-friend hits in plaintext order.

    {b Faults.} A crash in the schedule invokes the mixer's [kill]; a
    killed or unreachable mixer is a hop that is down, so the chain
    aborts ({!Alpenhorn_mixnet.Chain.Aborted}), and recovery invokes
    [restart] before the round re-runs. A PKG call that fails in a round
    (transport error, error frame, timeout) means the PKG is down: the
    attempt aborts and re-runs the same way, and the erasure of its round
    secret is best effort. There is no PKG restart: a PKG that stays
    down ends its rounds in
    {!Alpenhorn_core.Deployment.Round_failed}. Registration runs outside
    any round, and there an unreachable PKG raises [Failure].

    {b Tracing.} Under {!Alpenhorn_core.Deployment.set_tracer}, each round
    runs under one [net.round] root span; every RPC emits a client-side
    [rpc.call] span and carries a child context to the server on the
    frame envelope ({!Alpenhorn_net.Framing.encode_traced}), so the fleet
    collector stitches one cross-process timeline per round. *)

type endpoint = { host : string; port : int }

type mixer = {
  mutable ep : endpoint;  (** updated by the recovery loop after [restart] *)
  kill : unit -> unit;  (** terminate the server (SIGKILL + reap, or server stop) *)
  restart : unit -> endpoint;  (** respawn it; returns the new endpoint *)
}

type t = Alpenhorn_core.Deployment.t

val create :
  config:Alpenhorn_core.Config.t ->
  seed:string ->
  pkgs:endpoint array ->
  mixers:mixer array ->
  unit ->
  t
(** [pkgs] must have [config.n_pkgs] entries and [mixers]
    [config.chain_length] (mixer [i] serves position [i] of both chains).
    Fetches the PKGs' long-term keys once ({!Proto.pkg_info}); other
    connections are opened lazily, cached per endpoint, and time out
    after 10 s.
    @raise Invalid_argument on a bad config or count mismatch.
    @raise Failure when a PKG is unreachable. *)

val close : t -> unit
(** Close every cached connection (servers are not touched). *)

(** {1 Aliases of {!Alpenhorn_core.Deployment}} *)

val new_client :
  t -> email:string -> callbacks:Alpenhorn_core.Client.callbacks -> Alpenhorn_core.Client.t

val register : t -> Alpenhorn_core.Client.t -> (unit, Alpenhorn_pkg.Pkg.error) result
(** @raise Failure when a PKG is unreachable. *)

val run_addfriend_round :
  t -> ?participants:Alpenhorn_core.Client.t list -> unit -> Alpenhorn_core.Deployment.af_stats

val run_dialing_round :
  t -> ?participants:Alpenhorn_core.Client.t list -> unit -> Alpenhorn_core.Deployment.dial_stats
