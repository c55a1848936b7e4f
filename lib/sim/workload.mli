(** Workload generation for the evaluation (paper §8.1, §8.4).

    The system-scale experiments never materialize individual messages:
    what drives latency and bandwidth is {e how many} requests land in each
    mailbox. This module samples exactly that — recipients drawn uniformly
    or Zipf-skewed, mapped to mailboxes by the same hash rule the real
    mixnet uses, plus per-server Laplace noise per mailbox drawn as the
    servers draw it ({!Alpenhorn_mixnet.Mailbox.noise_count}). *)

module Drbg = Alpenhorn_crypto.Drbg

type spec = {
  n_users : int;
  active_fraction : float;  (** paper: 0.05 *)
  recipient_skew : float;  (** Zipf s; 0 = uniform *)
  noise_mu : float;  (** per mailbox per server *)
  laplace_b : float;
  chain_length : int;
}

val active_count : spec -> int

val num_mailboxes : spec -> int
(** K of {!Alpenhorn_mixnet.Mailbox.plan}: the §6 balance rule. *)

type mailbox_load = {
  real : int array;  (** real requests per mailbox *)
  noise : int array;  (** noise messages per mailbox (all servers) *)
}

val generate : spec -> Drbg.t -> mailbox_load
(** Sample one round. Recipients are ranks 1..n mapped to mailboxes by
    hashing, so popular users cluster exactly as the hash happens to place
    them — matching the paper's observation that skew concentrates load
    only as far as popular users share mailboxes. *)

val total : mailbox_load -> int array
(** real + noise per mailbox. *)
