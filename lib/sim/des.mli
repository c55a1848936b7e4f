(** A minimal discrete-event simulation engine.

    Events are thunks scheduled at absolute times and executed in time
    order (FIFO among equal timestamps, so causally-ordered schedules stay
    deterministic). {!Round_sim} uses it to replay a mixnet round at
    message-batch granularity; it is generic enough for any future
    experiment that needs overlapping activities (stragglers, pipelining,
    server restarts). *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time (seconds); 0 at creation. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Schedule a thunk at absolute time [at].
    @raise Invalid_argument if [at] is in the simulated past. *)

val after : t -> delay:float -> (unit -> unit) -> unit
(** [schedule] relative to [now]. [delay] must be non-negative. *)

val run : t -> unit
(** Execute events (which may schedule further events) until none remain. *)

val pending : t -> int
(** Events currently queued — the instantaneous queue depth. *)

val max_pending : t -> int
(** High-water mark of {!pending} over the engine's lifetime. Backs the
    [sim.des_pending_max] gauge {!Round_sim} samples for the SLO health
    engine. *)
