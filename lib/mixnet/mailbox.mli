(** Mailbox distribution at the end of the mixnet chain (§3.1 steps 3-4).

    The last server groups payloads by mailbox id. Add-friend mailboxes
    hold the raw encrypted requests; dialing mailboxes are packed into
    Bloom filters (§5.2). Clients fetch the mailbox [H(email) mod K].

    Every §6/§5.1 sizing decision lives here: {!plan} picks a round's
    mailbox count K and shard count S, {!expected_load} is what a mailbox
    is expected to hold, and {!noise_count} draws one server's noise for
    one mailbox. *)

type t =
  | Plain of string list array  (** add-friend: one list of ciphertexts per mailbox *)
  | Filters of Alpenhorn_bloom.Bloom.t array  (** dialing: one Bloom filter per mailbox *)

(** {2 The round plan (§6, §5.1)} *)

val num_mailboxes_for : expected_real:int -> noise_mu:float -> chain_length:int -> int
(** The §6 balance rule, real traffic and noise roughly even per mailbox:
    [max 1 (round (expected_real / (noise_mu · chain_length)))]. *)

type plan = {
  num_mailboxes : int;  (** K *)
  num_shards : int;  (** S, [1 <= S <= K] *)
  mailbox_load : float;  (** expected messages per mailbox ({!expected_load}) *)
  shard_load : float;  (** expected messages per shard, [mailbox_load · K/S] *)
}

val plan : expected_real:int -> noise_mu:float -> chain_length:int -> shards:int -> plan
(** The plan of a round with [expected_real] real submissions and
    [noise_mu] noise per mailbox from each of [chain_length] servers: K by
    the balance rule, raised to at least S so no shard is empty; S =
    [shards], or K (one shard per mailbox) when [shards] is 0.
    @raise Invalid_argument when [shards < 0]. *)

val expected_load :
  expected_real:int -> noise_mu:float -> chain_length:int -> num_mailboxes:int -> float
(** Expected messages per mailbox over [num_mailboxes] = K mailboxes:
    [expected_real / K + noise_mu · chain_length]. *)

val noise_count : Alpenhorn_crypto.Drbg.t -> mu:float -> b:float -> int
(** One server's noise for one mailbox: [max 0 (round (Laplace(µ, b)))]. *)

(** {2 Distribution} *)

val mailbox_of_identity : string -> num_mailboxes:int -> int
(** [H(email) mod K]. *)

val distribute : num_mailboxes:int -> mode:[ `AddFriend | `Dialing ] -> string array -> t * int
(** Split final payloads into mailboxes; cover traffic and out-of-range ids
    are dropped. Returns the mailboxes and the number of dropped
    messages. This is {!distribute_sharded} with one shard per mailbox;
    an add-friend mailbox lists its bodies, headers stripped, the last
    payload first.
    @raise Invalid_argument when [num_mailboxes < 1]. *)

val size_bytes : t -> int array
(** Download size of each mailbox as the client sees it. *)

val plain_exn : t -> string list array
val filters_exn : t -> Alpenhorn_bloom.Bloom.t array

(** {2 Sharded distribution (§5.1 CDN model)}

    At million-user scale a client downloads one {e shard} — a contiguous
    prefix range of mailbox ids ({!Shard}) — instead of one mailbox.
    Distribution runs a counting sort over flat int buffers (no
    per-mailbox lists) and builds each shard on the domain pool; it is
    the one grouping pass, which {!distribute} runs too. *)

type sharded =
  | Plain_shards of string array
      (** add-friend: per shard, a {!Stream_writer} blob of length-prefixed
          records; each record body is a full payload (mailbox header
          included) so clients filter for their own mailbox locally *)
  | Filter_shards of Alpenhorn_bloom.Bloom.t array
      (** dialing: per shard, one Bloom filter over every dial token whose
          mailbox falls in the shard's range *)

val distribute_sharded :
  shard:Shard.t -> mode:[ `AddFriend | `Dialing ] -> string array -> sharded * int
(** Split final payloads into [shard]'s shards; cover traffic and
    out-of-range ids are dropped. Returns the shards and the number of
    dropped messages. *)

val sharded_size_bytes : sharded -> int array
(** Download size of each shard as the client sees it. *)

val plain_shards_exn : sharded -> string array
val filter_shards_exn : sharded -> Alpenhorn_bloom.Bloom.t array
