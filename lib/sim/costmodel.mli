(** Latency and bandwidth model for system-scale experiments (paper §8.2-§8.4).

    The paper ran 3-10 c4.8xlarge servers across three EC2 regions with up
    to 10M simulated clients. We cannot, so we price the protocol's exact
    message flows with a pipeline model:

    {v
    round latency = Σ over servers (unwrap batch + generate noise + transfer)
                  + client mailbox download + client mailbox scan
    v}

    Message counts and sizes come from the real wire formats
    ({!Alpenhorn_core.Wire}, {!Alpenhorn_bloom.Bloom}); only per-operation
    times are modeled. Two calibrations:

    - {!paper_machine}: constants back-solved from the paper's published
      measurements (800 IBE decryptions/s/core, 36 cores, 10 Gbps links,
      80 ms inter-region RTT; onion unwrap time fitted to the 10M-user /
      3-server figures of 152 s add-friend and 118 s dialing).
    - {!measure_local}: the same constants measured on this machine's
      pure-OCaml primitives, so absolute numbers reflect this
      implementation.

    EXPERIMENTS.md reports both; the claim is shape agreement, not absolute
    agreement. *)

module Params = Alpenhorn_pairing.Params

type machine = {
  cores : int;  (** per mixnet/PKG server *)
  client_cores : int;
  t_unwrap : float;  (** s/core per onion layer (DH + AEAD) *)
  t_ibe_prepare : float;  (** s per mailbox scan: preparing the identity key *)
  t_ibe_decrypt : float;  (** s/core per mailbox-scan attempt under the prepared key *)
  t_ibe_encrypt : float;  (** s/core per noise request (add-friend) *)
  t_token : float;  (** s/core per dial-token hash *)
  t_pairing : float;  (** s/core per Tate pairing (the IBE/BLS kernel) *)
  link_bandwidth : float;  (** bytes/s between servers *)
  client_bandwidth : float;  (** bytes/s client downlink *)
  rtt : float;  (** inter-region round trip, s *)
}

val paper_machine : machine

val measure_local : ?pool:Alpenhorn_parallel.Parallel.t -> Params.t -> machine
(** Quick microbenchmark (a few hundred ms) of this host's primitives.
    With [?pool], [cores] (and [client_cores]) are calibrated from the
    pool's {e measured} speedup on the batch onion-unwrap path — not
    assumed from its size — so the pipeline model predicts with the
    parallelism this host actually delivers. Without a pool, [cores] is
    1. *)

val addfriend_scan_seconds : machine -> requests:float -> float
(** One client's add-friend mailbox scan: [t_ibe_prepare] once, then
    [requests] trial decryptions spread over [client_cores]. *)

val pp_machine : Format.formatter -> machine -> unit
(** Human-readable calibration record. *)

val machine_to_json : machine -> string
(** JSON object for a calibrated machine, so [measure_local] runs can be
    recorded alongside telemetry snapshots (DESIGN.md §7) instead of
    printed and lost. *)

type protocol_costs = {
  request_bytes : int;  (** one add-friend mailbox entry *)
  dial_token_bytes : int;  (** 32 *)
  bloom_bits_per_token : int;  (** 48 *)
  onion_layer_bytes : int;
  payload_header_bytes : int;
}

val protocol_costs : Params.t -> protocol_costs

type round_breakdown = {
  server_seconds : float array;  (** per-server processing + transfer *)
  download_seconds : float;
  scan_seconds : float;
  total_seconds : float;
  mailbox_bytes : int;  (** what the client downloads *)
  uplink_bytes : int;  (** per client per round *)
}

val addfriend_round :
  machine ->
  protocol_costs ->
  n_users:int ->
  n_servers:int ->
  noise_mu:float ->
  active_fraction:float ->
  ?mailbox_requests:int ->
  unit ->
  round_breakdown
(** End-to-end AddFriend latency (Fig 8). [mailbox_requests] overrides the
    balanced-mailbox estimate — used by the skew experiments to price a
    specific (larger or smaller) mailbox. *)

val dialing_round :
  machine ->
  protocol_costs ->
  n_users:int ->
  n_servers:int ->
  noise_mu:float ->
  active_fraction:float ->
  friends:int ->
  intents:int ->
  ?mailbox_tokens:int ->
  unit ->
  round_breakdown
(** End-to-end Call latency (Fig 9). [friends] × [intents] drives the
    client-side Bloom scan (paper: 1000 friends, 10 intents). *)

val addfriend_bandwidth :
  protocol_costs ->
  n_users:int ->
  n_servers:int ->
  noise_mu:float ->
  active_fraction:float ->
  round_seconds:float ->
  float
(** Client bandwidth in bytes/s (Fig 6). *)

val dialing_bandwidth :
  protocol_costs ->
  n_users:int ->
  n_servers:int ->
  noise_mu:float ->
  active_fraction:float ->
  round_seconds:float ->
  float
(** Client bandwidth in bytes/s (Fig 7). *)
