(** The Alpenhorn client library: the paper's Figure 1 API.

    A client owns a long-term signing key, an address book (keywheel table
    plus trust-on-first-use key store), and queues of pending add-friend and
    call intents. It participates in every round with exactly one
    fixed-size submission — a real request when one is queued, cover
    traffic otherwise — so the servers learn nothing from traffic patterns.

    The client is transport-agnostic: round participation is broken into
    explicit steps ({!begin_addfriend_round} / {!addfriend_submission} /
    {!scan_addfriend_mailbox}, and the dialing equivalents) that a driver —
    the in-process {!Deployment}, the discrete-event simulator, or a real
    network layer — sequences. *)

module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Ibe = Alpenhorn_ibe.Ibe
module Bls = Alpenhorn_bls.Bls
module Dh = Alpenhorn_dh.Dh
module Pkg = Alpenhorn_pkg.Pkg

type t

type callbacks = {
  new_friend : email:string -> key:Bls.public -> bool;
      (** Incoming friend request (paper's NewFriend); return true to
          accept. *)
  confirmed_friend : email:string -> unit;
      (** A friend request we sent was confirmed; the keywheel entry now
          exists. *)
  incoming_call : email:string -> intent:int -> session_key:string -> unit;
      (** Paper's IncomingCall. *)
  call_placed : email:string -> intent:int -> session_key:string -> unit;
      (** Our own Call went out this round; the session key is what the
          paper's Call() returns. *)
}

val null_callbacks : callbacks
(** Accepts every friend request, ignores every notification. *)

val create :
  config:Config.t ->
  rng:Drbg.t ->
  email:string ->
  pkg_public_keys:Bls.public list ->
  callbacks:callbacks ->
  t
(** Fig 1 [Register] begins here; registration with the PKGs is completed
    by the driver (see {!Deployment.register}). [pkg_public_keys] are the
    servers' long-term keys, pre-distributed with the software (§3.3). *)

val email : t -> string
val signing_public : t -> Bls.public
(** Fig 1 [MySigningKey]. *)

val sign_extraction_request : t -> round:int -> Bls.signature
val sign_deregister : t -> Bls.signature

(** {1 Address book} *)

val add_friend : t -> ?expected_key:Bls.public -> email:string -> unit -> unit
(** Fig 1 [AddFriend]: queue a friend request to [email]. [expected_key] is
    the optional out-of-band key; if given, incoming confirmations must
    match it. *)

val call : t -> email:string -> intent:int -> unit
(** Fig 1 [Call]: queue a call. The session key is delivered through the
    [call_placed] callback when the dial token is actually sent.
    @raise Invalid_argument if [intent] is outside [0, max_intents). *)

val friends : t -> string list
val is_friend : t -> email:string -> bool
val remove_friend : t -> email:string -> unit
(** Erase the keywheel entry and pinned key (§3.2 worst-case guarantee). *)

val pinned_key : t -> email:string -> Bls.public option
(** The TOFU-pinned long-term key for a friend. *)

val pending_add_friends : t -> int
val pending_calls : t -> int

(** {1 Round abort recovery (DESIGN.md §10)}

    Anytrust (§4.5) aborts a whole round when any server is down. The
    driver retries the round under a {!retry_policy}; between attempts it
    rolls each client back to its pre-round {!checkpoint} so queued
    requests and DH state are replayed instead of silently dropped. *)

type retry_policy = {
  max_attempts : int;  (** total tries per round, including the first *)
  base_delay : float;  (** seconds before the first retry *)
  backoff_factor : float;  (** delay multiplier per further retry *)
  max_delay : float;  (** backoff cap, before jitter *)
  jitter : float;  (** fraction in [0, 1]: delay varies by ±jitter *)
  round_timeout : float;  (** a round stalled past this is abandoned *)
}

val default_retry_policy : retry_policy
(** 4 attempts, 5 s base, x2 growth capped at 60 s, ±20% jitter, 600 s
    round timeout. *)

val backoff_delay : retry_policy -> seed:string -> attempt:int -> float
(** Delay before re-running a round after failed [attempt] (>= 1):
    [min max_delay (base_delay * backoff_factor^(attempt-1))] jittered by
    ±[jitter]. The jitter is drawn from a DRBG keyed on [(seed, attempt)]
    only — never the client's protocol rng — so the delay sequence is
    deterministic and retries leave the protocol's randomness untouched.
    @raise Invalid_argument on a malformed policy or [attempt < 1]. *)

type checkpoint
(** The client state a round submission mutates: the three request queues
    and the pending-outgoing DH table. Deliberately excludes the keywheel
    (an aborted round never reaches the scan step). *)

val checkpoint : t -> checkpoint
val rollback : t -> checkpoint -> unit
(** Restore the state captured by {!checkpoint}; a checkpoint may be
    rolled back to any number of times. *)

(** {1 Add-friend rounds (Algorithm 1)} *)

type af_round
(** Per-round client state: the aggregated identity private key, the PKG
    attestations for this client, and the round number. Dropped at the end
    of the round (forward secrecy, §4.4). *)

val begin_addfriend_round :
  t ->
  round:int ->
  now:int ->
  pkgs:Pkg.t array ->
  (af_round, Pkg.error) result
(** Step 1: authenticate to every PKG, collect and aggregate identity keys
    and attestation signatures. *)

val begin_addfriend_round_with :
  t ->
  round:int ->
  n_pkgs:int ->
  extract:
    (int ->
    email:string ->
    signature:Bls.signature ->
    (Ibe.identity_key * Bls.signature, Pkg.error) result) ->
  (af_round, Pkg.error) result
(** The transport seam behind {!begin_addfriend_round}: [extract i] performs
    the authenticated key-extraction round trip with the [i]th PKG, however
    the caller reaches it — an in-process {!Pkg.t} handle or a network RPC
    ({!Alpenhorn_remote}'s framed TCP transport). Identical aggregation and
    first-error semantics. *)

val begin_addfriend_round_batch :
  t list ->
  round:int ->
  now:int ->
  pkgs:Pkg.t array ->
  (t * (af_round, Pkg.error) result) list
(** {!begin_addfriend_round} for a whole deployment at once: one
    {!Pkg.extract_batch} per PKG covers every client, fanning the
    verify/extract/sign work across the domain pool. Result order matches
    the input client list; per client the outcome (including which error
    is reported first) matches the sequential call. *)

val addfriend_submission :
  t ->
  af_round ->
  mpk_agg:Ibe.master_public ->
  num_mailboxes:int ->
  server_pks:Dh.public list ->
  string
(** Steps 2-3: one onion-wrapped, fixed-size submission — the queued friend
    request if any, otherwise cover traffic. *)

val addfriend_submission_traced :
  t ->
  af_round ->
  ?tracer:Alpenhorn_telemetry.Trace.t ->
  mpk_agg:Ibe.master_public ->
  num_mailboxes:int ->
  server_pks:Dh.public list ->
  unit ->
  string * Alpenhorn_telemetry.Trace.ctx option
(** {!addfriend_submission} plus an optional out-of-band trace context: a
    REAL submission (never cover traffic) is offered to the sampler and, if
    sampled, gets a root [client.submit] span whose context the caller
    threads through {!Alpenhorn_mixnet.Chain.run_round_traced}. The onion
    bytes are identical with or without a tracer. *)

type af_event =
  | Friend_request_accepted of string  (** new friend; confirmation queued *)
  | Friend_request_rejected of string  (** application declined *)
  | Friend_request_key_mismatch of string  (** TOFU or out-of-band key conflict *)
  | Friend_confirmed of string  (** our request was acked; keywheel entry live *)

val scan_addfriend_mailbox : t -> af_round -> string list -> af_event list
(** Steps 4-6: try to decrypt every ciphertext with the round identity key
    (prepared once for the mailbox, {!Ibe.with_prepared_key}), validate
    signatures (sender sig and PKG multisignature), fire callbacks, update
    keywheels, queue confirmations. Consumes [af_round]: the identity key
    and its prepared table are erased. *)

val verify_request :
  t -> round:int -> Wire.friend_request -> (unit, [ `Bad_pkg_sigs | `Bad_sender_sig ]) result
(** The two signature checks of Algorithm 1 step 4, exposed for tests. *)

(** {1 Dialing rounds (§5)} *)

val dialing_round : t -> int
(** The keywheel clock. *)

val advance_dialing : t -> round:int -> unit
(** Roll all keywheels forward (erases old keys). *)

val dialing_submission : t -> num_mailboxes:int -> server_pks:Dh.public list -> string
(** One onion-wrapped dial token for the current round — the oldest queued
    call, or cover traffic. Fires [call_placed] when a real call goes
    out. *)

val dialing_submission_traced :
  t ->
  ?tracer:Alpenhorn_telemetry.Trace.t ->
  num_mailboxes:int ->
  server_pks:Dh.public list ->
  unit ->
  string * Alpenhorn_telemetry.Trace.ctx option
(** {!dialing_submission} with optional out-of-band tracing; see
    {!addfriend_submission_traced}. *)

type dial_event = Incoming_call of { peer : string; intent : int; session_key : string }

val scan_dialing_mailbox : t -> Alpenhorn_bloom.Bloom.t -> dial_event list
(** Check the Bloom filter against every (friend, intent) token for the
    current round; fire [incoming_call] for hits. *)

val catch_up_dialing : t -> through:(int * Alpenhorn_bloom.Bloom.t option) list -> dial_event list
(** Replay missed rounds in ascending order (§5.1): for each [(round,
    filter)] past the wheel's clock, advance the keywheel and scan the
    filter when the server still holds it; [None] filters (expired from the
    archive) advance the wheel without scanning, preserving forward secrecy
    at the cost of losing those calls. *)

(** {1 Backup and restore (§9)} *)

val export_backup : t -> passphrase:string -> string
(** Seal the long-term signing key and the pinned friend keys into an
    encrypted blob ({!Persist}). Keywheel state is deliberately excluded —
    the paper discourages keywheel backups as bad for forward secrecy. *)

val create_from_backup :
  config:Config.t ->
  rng:Drbg.t ->
  pkg_public_keys:Bls.public list ->
  callbacks:callbacks ->
  Persist.identity_backup ->
  t
(** Rebuild a client from a restored backup: same identity and long-term
    key, pinned friend keys pre-loaded, empty keywheel. The user then
    re-runs add-friend with each friend (the restored pins defeating any
    man-in-the-middle). *)

(** {1 Introspection} *)

val keywheel : t -> Alpenhorn_keywheel.Keywheel.t
val config : t -> Config.t
