(** An Alpenhorn deployment: N PKGs, an add-friend mixnet chain, a dialing
    mixnet chain, an email provider for registration, and any number of
    clients — all driven round by round.

    This module is the one implementation of the rounds (DESIGN.md §13):
    the add-friend round of Algorithm 1, the dialing round of §5, the §10
    rollback around the §4.5 anytrust abort (its attempts run through
    {!Faults.retry}), and the §5.1 dialing archive. It reaches the PKGs
    through the {!backend}'s {!pkg} records and the mixnet through its
    {!Alpenhorn_mixnet.Chain}s, one mix pipeline whatever the transport;
    a PKG or a mixer that fails a round aborts it the same way.
    {!create} runs on {!local_backend}: the real protocol end to end
    (every onion layer, IBE ciphertext, signature and Bloom filter is
    genuine) with the network collapsed into function calls.
    [Alpenhorn_remote.Net_deployment] builds a backend that reaches server
    processes over framed TCP RPC. The latency/bandwidth figures of §8 use
    {!Alpenhorn_sim} instead, which prices the same message flows with a
    hardware cost model. *)

module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Bls = Alpenhorn_bls.Bls
module Pkg = Alpenhorn_pkg.Pkg

type t

type mode = [ `AddFriend | `Dialing ]

(** {1 The servers}

    Every server derives its DRBG from the deployment's root DRBG
    ({!root_rng}) along a fixed label, whichever process builds it, so a
    server process reproduces the in-process server of the same seed. *)

val root_rng : seed:string -> Drbg.t

val new_pkg : config:Config.t -> seed:string -> index:int -> Pkg.t * (email:string -> string list)
(** PKG [index], along ["pkg-<index>"], with its simulated email
    provider: the second component reads the confirmation tokens it
    delivered to an address, most recent first. *)

val new_mix_server :
  config:Config.t -> seed:string -> mode -> position:int -> Alpenhorn_mixnet.Server.t
(** Position [position] of one chain, along ["af-chain"] or
    ["dial-chain"], then ["mix-server-<position>"].
    @raise Invalid_argument when [position] is outside the chain. *)

val create : config:Config.t -> seed:string -> t
(** The in-process deployment: {!of_backend} over {!local_backend}.
    Clients derive along ["client-"^email]. *)

val params : t -> Params.t

val pkg_public_keys : t -> Bls.public list
(** The PKGs' long-term signing keys, pre-distributed to clients (§3.3). *)

val now : t -> int
val advance_clock : t -> seconds:int -> unit

val new_client : t -> email:string -> callbacks:Client.callbacks -> Client.t
(** Create a client wired to this deployment's PKG keys (does not
    register it). *)

val register : t -> Client.t -> (unit, Pkg.error) result
(** Fig 1 [Register]: register the client's long-term key with every PKG,
    completing the email-confirmation flow through the provider (§4.6). *)

val close : t -> unit
(** Release the backend's resources (RPC connections); servers are not
    touched. A no-op in process. *)

(** {1 Fault injection and recovery (DESIGN.md §10)} *)

exception Round_failed of { phase : string; round : int; attempts : int }
(** Every attempt the retry policy allowed aborted. The deployment is
    left consistent: servers restarted, clients rolled back, nothing
    published — the next round can run normally. *)

val set_faults : t -> Faults.t -> unit
(** Install the fault schedule applied to subsequent rounds;
    {!Faults.empty} (the default) clears it. Crashes and stalls are
    injected just after the chain announces its round keys — the
    server-dies-mid-round case the anytrust abort path (§4.5) exists for;
    a crash goes through the chain's hop, and the stalls of every server
    add up against the policy's [round_timeout]. Link latency and loss
    are not modeled here. An aborted round rolls every participant back
    and runs again through {!Faults.retry}, its backoff on the logical
    clock ({!advance_clock}); aborts, retries, injected faults and
    recovery time land in the [faults.*] metrics and the [round.*] events
    (labeled with the phase and the round), whatever the backend. *)

val set_retry_policy : t -> Faults.policy -> unit
(** @raise Invalid_argument on a malformed policy
    ({!Faults.validate_policy}). *)

val retry_policy : t -> Faults.policy
(** Defaults to {!Faults.default_policy}. *)

(** {1 Tracing} *)

val set_tracer : t -> Alpenhorn_telemetry.Trace.t option -> unit
(** Attach a tracer (default none) to every later round. The backend
    chooses the trace shape ({!backend}'s [trace_round]). In process,
    sampled real submissions get stitched per-message traces
    ([client.submit] → per-server [mix.hop] → [mailbox.publish] →
    [client.scan]); trace contexts ride out of band and the wire bytes are
    unchanged (DESIGN.md §9). Over RPC, each round runs under one
    [net.round] root whose children are the round's [rpc.call] spans, and
    each server emits its handler span under the context the call carried
    (DESIGN.md §14). *)

(** {1 Rounds} *)

type af_stats = {
  af_round : int;
  af_attempts : int;  (** 1 = no abort; [n] = recovered on the nth try *)
  requests_in : int;
  noise_added : int;
  dropped : int;
  num_mailboxes : int;
  mailbox_bytes : int array;
  events : (string * Client.af_event) list;  (** (client email, event) *)
}

val run_addfriend_round : t -> ?participants:Client.t list -> unit -> af_stats
(** One complete add-friend round (Algorithm 1): PKG key rotation with
    commit-reveal verification, per-client key extraction, submission,
    mixing with noise, mailbox distribution, download and scan, key
    erasure. [participants] defaults to every registered client.

    The round logs [round.start]/[round.close] events, sets the
    [mailbox.max_load] gauge for the SLO engine, and at its close counts
    [round.completed], samples the runtime stats and records one
    time-series sample.

    The round may abort and re-run, under a fault schedule
    ({!set_faults}) or when a PKG is down, fails its reveal or reveals a
    key other than its commitment (a severity-[Error] [pkg.round_abort]
    event names it); [af_attempts] reports how many tries it took. A
    client a PKG refuses to extract for (say, an account deregistered
    since) sits the round out, as an offline client does: it submits
    nothing and keeps its queues, and a severity-[Warn]
    [client.extract_failed] event names it and the error.
    @raise Round_failed when the retry budget is exhausted. *)

type dial_stats = {
  dial_round : int;
  dial_attempts : int;  (** 1 = no abort; [n] = recovered on the nth try *)
  tokens_in : int;
  dial_noise_added : int;
  dial_dropped : int;
  dial_num_mailboxes : int;
  filter_bytes : int array;  (** download size of each shard *)
  calls : (string * Client.dial_event) list;
}

val run_dialing_round : t -> ?participants:Client.t list -> unit -> dial_stats
(** One dialing round (§5); same observability hooks as
    {!run_addfriend_round}. Distribution is always sharded (§5.1,
    {!Alpenhorn_mixnet.Mailbox.distribute_sharded}): [Config.dial_shards]
    shards, or one per mailbox when it is 0. A participant that missed
    earlier rounds (left out of [?participants], or offline under a fault
    schedule) first replays the archived filters, as {!catch_up_client}
    does, and [calls] also carries the events it recovers. Under a fault
    schedule, a round may abort and re-run (see {!set_faults}).
    @raise Round_failed when the retry budget is exhausted. *)

val dialing_round_number : t -> int

(** {1 Offline clients (§5.1)} *)

val archived_filter : t -> round:int -> email:string -> Alpenhorn_bloom.Bloom.t option
(** The dialing filter [email] would download for [round] (its shard's),
    if the archive still holds that round ([Config.dial_archive_rounds]
    retention). *)

val catch_up_client : t -> Client.t -> Client.dial_event list
(** Bring a client that skipped dialing rounds up to the current round:
    scan every archived round it missed, advance its keywheel past the
    expired ones (§5.1's give-up rule). *)

(** {1 The backend seam}

    Everything the rounds ask of the servers: one {!pkg} record per PKG
    and one {!Alpenhorn_mixnet.Chain.t} per {!mode}. A PKG or mixnet hop
    that is down or unreachable in a round is the anytrust abort signal:
    the attempt aborts, every PKG and mixer erases its round secrets,
    participants roll back, and {!Faults.retry} runs it again. *)

type pkg = {
  public_key : Bls.public;  (** the long-term signing key, fetched once *)
  register : now:int -> email:string -> pk:Bls.public -> (unit, Pkg.error) result;
  inbox : email:string -> string list;
      (** confirmation tokens the PKG mailed to [email], most recent first *)
  confirm : now:int -> email:string -> token:string -> (unit, Pkg.error) result;
  begin_round : round:int -> string option;
      (** the commitment to the round key; [None] when the PKG is down *)
  reveal :
    round:int -> (Alpenhorn_ibe.Ibe.master_public * string, Pkg.error) result option;
      (** the round's master public key and the commitment opening *)
  extract_batch :
    now:int ->
    round:int ->
    (string * Bls.signature) array ->
    (Alpenhorn_ibe.Ibe.identity_key * Bls.signature, Pkg.error) result array option;
      (** every client's extraction request, answers in order *)
  end_round : round:int -> unit;  (** erase the round's master secret, if the PKG answers *)
}
(** One PKG behind a transport. Registration runs outside any round. *)

type backend = {
  pkgs : pkg array;  (** PKG [j] at index [j] *)
  chain : mode -> Alpenhorn_ibe.Ibe.master_public option Alpenhorn_mixnet.Chain.t;
      (** the mode's chain. Its noise value is the round's aggregate IBE
          key when add-friend noise is faithful, [None] otherwise. *)
  trace_round :
    'a.
    Alpenhorn_telemetry.Trace.t ->
    phase:string ->
    round:int ->
    (Alpenhorn_telemetry.Trace.t option -> 'a) ->
    'a;
      (** run one round, retries included, under the given tracer. A
          backend whose messages carry trace contexts out of band hands
          the tracer on ([Some]) and the rounds trace each sampled
          message; a backend that traces the round itself hands on
          [None]. *)
  close : unit -> unit;
}

val local_backend : config:Config.t -> seed:string -> Pkg.t array * backend
(** The backend {!create} runs on: the {!new_pkg} PKGs as function calls
    (never down), and chains of {!Alpenhorn_mixnet.Chain.local} hops over
    {!new_mix_server} servers, their noise bodies drawn from the root DRBG
    in chain order. The PKG handles come beside it, for compromise tests;
    a test can substitute a faulty PKG record or chain before
    {!of_backend}. @raise Invalid_argument on a bad config. *)

val of_backend : config:Config.t -> seed:string -> backend -> t
(** A deployment driven through [backend]. Clients derive from [seed]
    exactly as in {!create}, so a backend whose servers derive along the
    same labels reproduces the in-process protocol results.
    @raise Invalid_argument on a bad config. *)
