(** Million-user round driver (DESIGN.md §15).

    Runs one dialing round's {e distribution} pipeline — mailbox
    assignment, §5.1 contiguous-range sharding, §5.2 Bloom packing,
    streaming publish, client scan — at 10^6 clients in-process, with
    synthetic 32-byte tokens standing in for the mixnet's onions (the real
    crypto path is exercised end-to-end by {!Alpenhorn_core.Deployment} at
    small scale).

    The tokens are generated as last-hop payloads in contiguous chunks on
    the {!Alpenhorn_parallel.Parallel} pool and packed by
    {!Alpenhorn_mixnet.Mailbox.distribute_sharded}, the function every
    dialing round's last server runs. Per token the round holds one
    payload string plus two index words (the distribution's shard id and
    permutation slot); no per-client heap structure exists, so peak
    memory is affine in the client count. {!budget_words} states that
    budget and the scale suite (CI [@scale-smoke], [bench scale]) asserts
    it.

    Results land in the [scale.*] gauges/counters for the
    {!Alpenhorn_telemetry.Slo} scale rules. Deterministic for a given
    [seed] and pool size. *)

type result = {
  clients : int;
  active : int;  (** dialers this round (5% of clients by default, §8.1) *)
  shards : int;
  num_mailboxes : int;
  tokens : int;  (** real + noise tokens distributed *)
  noise : int;
  round_seconds : float;
  bytes_per_client : int;  (** largest shard download (§5.1) *)
  total_filter_bytes : int;
  writer_peak_bytes : int;  (** bounded-writer high-water mark *)
  peak_words : int;  (** heap high-water mark attributable to the round *)
  words_per_client : float;
  scan_clients : int;  (** sampled scanning clients *)
  scan_dialed : int;  (** sampled clients that actually received a dial *)
  scan_hits : int;
      (** dialed clients that found their token — must equal [scan_dialed]
          (Bloom filters have no false negatives) *)
  scan_false_positives : int;  (** undialed clients whose probe matched (§5.2 rate) *)
}

val budget_slack_words : int
val budget_per_client_words : int

val budget_words : clients:int -> int
(** The asserted memory budget, [slack + per_client * clients]: a fixed
    process slack plus a constant per client. Calibrated several times
    above the measured cost so only an O(n) regression (e.g. a per-client
    hashtable) can breach it. *)

val within_budget : result -> bool
(** [r.peak_words <= budget_words ~clients:r.clients]. *)

val run :
  ?seed:string ->
  ?shards:int ->
  ?noise_per_mailbox:int ->
  ?active_fraction:float ->
  ?scan_sample:int ->
  clients:int ->
  unit ->
  result
(** One synthetic dialing round. [shards] defaults to one per ~64k
    clients (at least 1); [noise_per_mailbox] to the paper's
    µ·chain = 25000·3; [scan_sample] to 4096 scanning clients spread
    evenly over the population. The §6 balance rule picks the mailbox
    count, raised to at least the shard count.
    @raise Invalid_argument on non-positive [clients] or [shards]. *)

val pp : Format.formatter -> result -> unit
(** Human-readable multi-line summary. *)
