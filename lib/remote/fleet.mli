(** A localhost fleet for {!Net_deployment}, the scripted scenario
    [alpenhorn_cli e2e-net] runs over it, and the check that holds the
    wire deployment to the in-process one (DESIGN.md §13).

    A fleet is one PKG server per [config.n_pkgs] and one mixer server per
    chain position, each on an ephemeral port of 127.0.0.1, and the
    {!Net_deployment} over them, with the fault schedule installed
    (default {!Alpenhorn_core.Faults.empty}). A mixer's [kill] stops its
    server and [restart] starts a fresh one from the same seed, so a crash
    in the fault schedule takes a real server down. The launchers run [f]
    on the fleet, then close the deployment and stop every server however
    [f] ends. *)

module Config = Alpenhorn_core.Config
module Deployment = Alpenhorn_core.Deployment

type server = {
  name : string;  (** ["pkg-<i>"] or ["mixer-<i>"] *)
  port : int;
  metrics : int option;  (** the telemetry endpoint's port, if served *)
}

type t

val processes :
  exe:string -> ?metrics:bool -> ?faults:Alpenhorn_core.Faults.t ->
  config:Config.t -> seed:string -> (t -> 'a) -> 'a
(** Every server a child process [exe serve-pkg] or [exe serve-mixer] (the
    CLI, which serves {!Config.test}'s curve and chain length), its ports
    read back from the [READY port=N [metrics=M]] line it prints once
    bound; [~metrics:true] gives each a telemetry endpoint too. A killed
    child is SIGKILLed and reaped.
    @raise Failure when a child exits before READY. *)

val domains :
  ?faults:Alpenhorn_core.Faults.t ->
  ?wrap:(string -> Alpenhorn_net.Rpc.handler -> Alpenhorn_net.Rpc.handler) ->
  config:Config.t -> seed:string -> (t -> 'a) -> 'a
(** Every server an {!Alpenhorn_net.Rpc.Server} on a domain of this
    process; a killed one is stopped and its domain joined. A test hook:
    server [name] runs [wrap name handler] in place of its [handler]
    (default: the handler itself), to record the frames it answers. *)

val deployment : t -> Deployment.t

val servers : t -> server list
(** PKGs first; a respawned mixer shows its new ports, a killed one its
    last. *)

val kill_mixer : t -> int -> unit
(** Between rounds only: the deployment is not told. *)

val restart_mixer : t -> int -> unit

val kill_pkg : t -> int -> unit
(** Between rounds only. A PKG has no restart: its later rounds fail. *)

(** {1 The scripted scenario and the check} *)

type round = Af of Deployment.af_stats | Dial of Deployment.dial_stats

val scenario : rounds:int -> Deployment.t -> round list
(** Alice and carol befriend bob over [rounds] add-friend rounds, then
    alice calls bob and bob calls carol over [rounds] dialing rounds.
    @raise Failure when a registration fails. *)

val round_to_string : round -> string
(** Every field of the stats on one line, session keys in hex. *)

val check : t -> (Deployment.t -> 'a) -> ('a * (string * int) list) * ('a * (string * int) list)
(** Run the scenario over the fleet's deployment, then replay it on
    {!Deployment.create} with the fleet's config, seed and fault
    schedule: the wire run's result first, each with the rise of every
    [faults.*] counter and histogram [.count] of
    {!Alpenhorn_telemetry.Telemetry.default} that rose during it (keyed by
    {!Alpenhorn_telemetry.Telemetry.metric_key}). The two must agree for
    every backend whose servers derive like the in-process ones. *)
