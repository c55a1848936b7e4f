(** Deterministic fault schedules, the retry policy and the one retry
    loop (DESIGN.md §10).

    Alpenhorn's anytrust design (§3, §4.5) means a round cannot complete
    when {e any} mixnet or PKG server is down: the paper aborts the round
    and has clients resubmit in the next one, and lets offline clients
    catch up on missed keywheel rounds (§5.3). A {!t} is the chaos
    harness's script for exercising exactly that machinery: a list of
    (round, fault) pairs — server crashes, stalls, link latency spikes and
    loss, client offline epochs — plus the seed that keyed any random
    generation. Everything is deterministic: the same schedule (and the
    same seed for backoff jitter) reproduces the same failure trace,
    event log included, byte for byte.

    Two drivers apply a schedule, each injecting faults into its own
    model: {!Deployment.set_faults} into the real protocol, in process or
    over RPC (genuine abort/rollback/retry), and [Alpenhorn_sim.Round_sim]
    into the replay on the DES clock (modeled timing). Both key faults by
    the {e per-phase} round number — a fault at round 2 fires in the 2nd
    add-friend round and the 2nd dialing round alike — and both run their
    attempts through {!retry}. *)

type kind =
  | Server_crash of { server : int; attempts : int }
      (** the server is down for the round's first [attempts] tries and
          restarts before the next retry *)
  | Server_stall of { server : int; seconds : float }
      (** the server processes its batch [seconds] late (first attempt
          only); a stall past the policy's [round_timeout] aborts the
          round *)
  | Link_latency of { server : int; factor : float }
      (** the server's outbound link runs [factor] times slower *)
  | Link_loss of { server : int; fraction : float }
      (** the server's outbound link drops [fraction] of messages
          (simulator only — the in-process deployment has no lossy
          links) *)
  | Client_offline of { client : int; rounds : int }
      (** client [client] (by registration index) misses [rounds]
          consecutive rounds starting at the fault's round, then catches
          up (§5.3) *)

type fault = { round : int; kind : kind }

type t
(** An immutable schedule in canonical order. *)

val empty : t

val of_list : ?seed:string -> fault list -> t
(** Sorts into canonical order; [seed] (default ["faults"]) keys backoff
    jitter. @raise Invalid_argument on out-of-range or non-finite
    fields. *)

val seed : t -> string
val to_list : t -> fault list
val is_empty : t -> bool

(** {1 Queries} Combined effect of every matching fault in the round:
    crash attempts take the max, stalls add, latency factors and loss
    survival rates multiply. All return the identity (0 / 0.0 / 1.0 /
    false) when nothing matches. *)

val crash_attempts : t -> round:int -> server:int -> int
val stall_seconds : t -> round:int -> server:int -> float
val latency_factor : t -> round:int -> server:int -> float
val loss_fraction : t -> round:int -> server:int -> float
val client_offline : t -> round:int -> client:int -> bool

(** {1 Textual schedules} ([--faults SPEC]) — semicolon-separated entries
    [kind@round:key=value,...]: [crash@2:server=1,attempts=2],
    [stall@3:server=0,seconds=45], [latency@1:server=2,factor=3],
    [loss@1:server=0,fraction=0.2], [offline@4:client=7,rounds=2].
    [attempts] and [rounds] default to 1. *)

val to_string : t -> string
(** Canonical spec, each number in the fewest digits that read back to
    the same double; [parse ~seed:(seed t) (to_string t) = Ok t]. *)

val parse : ?seed:string -> string -> (t, string) result
(** [Error] on an unknown kind or key, a repeated key, a malformed or
    non-finite number, or a value out of range. *)

val generate :
  seed:string ->
  rounds:int ->
  n_servers:int ->
  ?n_clients:int ->
  ?crash_p:float ->
  ?stall_p:float ->
  ?latency_p:float ->
  ?loss_p:float ->
  ?offline_p:float ->
  unit ->
  t
(** Seeded random schedule ([--fault-seed]): per round, each fault kind
    fires independently with its probability (crash/stall 0.3, latency/
    loss 0.2, offline 0.2 — offline only when [n_clients > 0]). Same seed,
    same schedule, forever. *)

(** {1 Retry} Bounded retry with exponential backoff and deterministic
    jitter, and the loop every driver runs its round's attempts through. *)

type policy = {
  max_attempts : int;  (** total tries per round, including the first *)
  base_delay : float;  (** seconds before the first retry *)
  backoff_factor : float;  (** delay multiplier per further retry *)
  max_delay : float;  (** backoff cap, before jitter *)
  jitter : float;  (** fraction in [0, 1]: delay varies by ±jitter *)
  round_timeout : float;  (** a round stalled past this is abandoned *)
}

val default_policy : policy
(** 4 attempts, 5 s base, x2 growth capped at 60 s, ±20% jitter, 600 s
    round timeout. *)

val validate_policy : policy -> unit
(** @raise Invalid_argument unless [max_attempts >= 1], both delays
    [>= 0], [backoff_factor >= 1], [jitter] in [0, 1] and
    [round_timeout > 0] (a nan fails every bound). *)

val backoff_delay : policy -> seed:string -> attempt:int -> float
(** Delay before re-running a round after failed [attempt] (>= 1):
    [min max_delay (base_delay * backoff_factor^(attempt-1))] jittered by
    ±[jitter]. The jitter is drawn from a DRBG keyed on [(seed, attempt)]
    only — never a protocol rng — so the delay sequence is deterministic
    under any clock and retries leave the protocol's randomness untouched.
    @raise Invalid_argument on a malformed policy or [attempt < 1]. *)

val retry :
  t ->
  policy ->
  ?events:Alpenhorn_telemetry.Events.t ->
  phase:string ->
  round:int ->
  labels:(string * string) list ->
  wait:(float -> unit) ->
  (int -> ('a * float, float) result) ->
  'a option * int
(** [retry t policy ~phase ~round ~labels ~wait attempt] runs [attempt 1],
    [attempt 2], … on the driver's clock until one publishes or
    [max_attempts] have aborted. An attempt returns [Ok (v, at)] when it
    published at clock reading [at], or [Error at] when it aborted at
    [at], after undoing whatever the attempt changed.

    After an abort the loop counts [faults.rounds_aborted] and raises the
    [faults.consecutive_aborts] gauge to the attempt number (the streak
    within the round) if that beats the gauge's value: the gauge holds the
    high-water mark since the registry's last reset. It then logs
    [round.failed] and gives up, or counts [faults.retries], logs
    [round.retry], and calls [wait] with {!backoff_delay}'s delay, keyed
    on [(seed t, phase, round)]. A publication after an abort observes
    [faults.recovery_seconds] (publication minus first abort) and logs
    [round.recovered]. Events go to [events] (default
    {!Alpenhorn_telemetry.Events.default}) under [labels], metrics to
    {!Alpenhorn_telemetry.Telemetry.default}.

    Returns [(Some v, n)] when attempt [n] published, [(None, n)] when
    every attempt aborted ([n = max_attempts]). [policy] must pass
    {!validate_policy}; both drivers check it before the first attempt. *)
