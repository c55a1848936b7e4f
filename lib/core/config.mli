(** Deployment configuration: the knobs an application developer sets when
    standing up a set of Alpenhorn servers (§3, §8.1). *)

type t = {
  param_name : string;  (** pairing parameter set: "test" or "production" *)
  n_pkgs : int;  (** number of independent PKG servers *)
  chain_length : int;  (** mixnet servers in the chain *)
  addfriend_noise_mu : float;  (** mean noise per add-friend mailbox per server (paper: 4000) *)
  dialing_noise_mu : float;  (** mean noise per dialing mailbox per server (paper: 25000) *)
  laplace_b : float;  (** Laplace scale; paper's evaluation sets 0 to kill variance *)
  max_intents : int;  (** intents the application declares (§5.3; paper: 10) *)
  active_fraction : float;  (** expected fraction of users active per round (paper: 5%) *)
  addfriend_round_seconds : int;  (** round cadence, for bandwidth accounting *)
  dialing_round_seconds : int;
  faithful_noise : bool;
      (** when true, add-friend noise is a genuine IBE encryption of random
          bytes to a random identity (§4.3); when false, random bytes of the
          right length — cheaper for large simulations. *)
  dial_archive_rounds : int;
      (** how many rounds of dialing mailboxes stay fetchable for clients
          that were offline (§5.1: "maintained by the Alpenhorn servers for
          a relatively long time", e.g. a day); older rounds are erased and
          offline clients advance their keywheels past them. *)
  dial_shards : int;
      (** the number S of contiguous-mailbox-range shards every dialing
          round distributes into (§5.1 CDN model,
          {!Alpenhorn_mixnet.Mailbox.distribute_sharded}): one Bloom filter
          per shard, clients download the shard covering their mailbox.
          The effective mailbox count is raised to at least S. 0 (the
          default in both presets) means one shard per mailbox (S = K),
          whose filters and downloads are byte-identical to per-mailbox
          distribution. *)
}

val paper : t
(** The paper's evaluation settings (§8.1): 3 PKGs, 3 mixers, µ = 4000 /
    25000, b = 0, 10 intents, 5% active, 1-hour add-friend rounds, 5-minute
    dialing rounds, production curve. *)

val test : t
(** Small and fast: test curve, tiny noise, short rounds. *)

val params : t -> Alpenhorn_pairing.Params.t
(** Resolve (and memoize) the pairing parameters. *)

val validate : t -> (unit, string) result
