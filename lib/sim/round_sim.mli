(** Message-granularity round replay on the {!Des} engine.

    The analytic {!Costmodel} prices a round as a sum of stages, which
    assumes each mixnet server finishes its whole batch before the next
    hop starts — the paper's store-and-forward design. This module replays
    the same round as discrete events, with the batch optionally split into
    [chunks] that flow through the chain independently:

    - [chunks = 1] reproduces store-and-forward; its total must agree with
      {!Costmodel} (cross-validated in the tests), which is what licenses
      the cheaper analytic model for the figures;
    - [chunks > 1] models a streaming mixnet in which a server forwards
      each chunk as soon as it is processed — an ablation the paper's
      design leaves on the table (at some privacy cost: early chunks leak
      arrival-order information, so a deployment would still batch per
      round; the experiment quantifies the latency price of that
      batching).

    Both entry points emit telemetry into {!Alpenhorn_telemetry.Telemetry}'s
    default registry under the {e same} metric names as a real deployment
    round ([mix.onions_in{server=i}], [mix.unwrap_seconds{server=i}],
    [client.scan_attempts], …), with spans timestamped on the simulated
    clock — so a [round_sim] run and a wall-clock run produce snapshots and
    Chrome traces with identical schema.

    Observability extensions (DESIGN.md §9):

    - [?tracer]: one candidate message riding chunk 0 is offered to the
      sampler; if sampled, its causal path (client.submit → one [mix.hop]
      per server → [mailbox.publish] → [client.scan]) is recorded as
      trace-labeled spans chained by parent span ids — the stitched
      per-message trace the Chrome exporter and
      {!Alpenhorn_telemetry.Trace.pp_timelines} render. The context is an
      OCaml value riding the chunk; nothing about the modeled messages
      changes.
    - [?events] (default {!Alpenhorn_telemetry.Events.default}): round
      start/publish/close and per-chunk forwards are logged as structured
      events on the simulated clock.
    - Queue-depth gauges: [sim.des_pending] is sampled from {!Des.pending}
      at every delivery event (zero again at quiescence) and
      [sim.des_pending_max] holds {!Des.max_pending}'s high-water mark;
      [mailbox.max_load] carries the modeled per-mailbox load for the
      {!Alpenhorn_telemetry.Slo} §6 ceiling rule.

    Fault injection (DESIGN.md §10): with [?faults] (a
    {!Alpenhorn_core.Faults.t} schedule, keyed by [?fault_round], default
    1) each attempt of the replay runs through
    {!Alpenhorn_core.Faults.retry}, the loop the deployments run, under
    [?policy] (default {!Alpenhorn_core.Faults.default_policy}; a
    malformed one raises [Invalid_argument] before anything is recorded),
    its backoff waiting on the DES clock. A chunk arriving at a crashed
    server aborts the whole attempt — nothing publishes, matching the
    anytrust abort (§4.5). A server's stall delays its first chunk, or
    aborts past the policy's round timeout (each server is checked on its
    own); link latency multiplies a server's outbound transfer time; link
    loss thins its outbound chunks. The loop's [round.*] events carry the
    [phase] label, and recovery time runs from the first abort to the
    publish. Same schedule and seed ⇒ the same failure trace, event log
    included, byte for byte; an empty schedule follows the exact no-fault
    code path. *)

type timeline = {
  server_done : float array;  (** when each server finished its last chunk *)
  publish : float;  (** mailboxes available (0 when the round failed) *)
  client_done : float;  (** download + scan complete (0 when failed) *)
  attempts : int;  (** 1 = clean; > 1 = aborted then retried *)
  completed : bool;  (** false iff every allowed attempt aborted *)
}

val addfriend :
  Costmodel.machine ->
  ?tracer:Alpenhorn_telemetry.Trace.t ->
  ?events:Alpenhorn_telemetry.Events.t ->
  ?faults:Alpenhorn_core.Faults.t ->
  ?fault_round:int ->
  ?policy:Alpenhorn_core.Faults.policy ->
  Costmodel.protocol_costs ->
  n_users:int ->
  n_servers:int ->
  noise_mu:float ->
  active_fraction:float ->
  chunks:int ->
  timeline
(** Replay one add-friend round. *)

val dialing :
  Costmodel.machine ->
  ?tracer:Alpenhorn_telemetry.Trace.t ->
  ?events:Alpenhorn_telemetry.Events.t ->
  ?faults:Alpenhorn_core.Faults.t ->
  ?fault_round:int ->
  ?policy:Alpenhorn_core.Faults.policy ->
  ?num_shards:int ->
  Costmodel.protocol_costs ->
  n_users:int ->
  n_servers:int ->
  noise_mu:float ->
  active_fraction:float ->
  friends:int ->
  intents:int ->
  chunks:int ->
  timeline
(** Replay one dialing round. With [?num_shards > 0] the client download
    is modeled as one §5.1 shard — the Bloom filter covering [K/S]
    mailboxes' worth of tokens, where [K] is raised to at least [S] — and
    the [scale.shards] / [scale.bytes_per_client] gauges are set for the
    {!Alpenhorn_telemetry.Slo} scale rules. Per-mailbox load (the §6
    ceiling) is unchanged. Default [0]: one shard per mailbox
    ({!Alpenhorn_mixnet.Mailbox.plan}), so the download is one mailbox.
    @raise Invalid_argument when [num_shards < 0]. *)
