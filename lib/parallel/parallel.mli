(** Data-parallel execution layer on OCaml 5 domains.

    A {!t} is a fixed-size pool: [size - 1] worker domains plus the
    submitting domain, all draining a shared job queue.  {!map} and
    {!map_list} split an input across the pool in contiguous chunks and
    reassemble results in input order, so output ordering is deterministic
    regardless of which domain ran which chunk.

    Determinism contract: with [size = 1] (the default) no domains are
    spawned and {!map} is literally [Array.map], so the 1-domain path is
    bit-identical to the sequential code it replaced.  With [size > 1] the
    function [f] must be pure with respect to the items it is given (no
    shared DRBG draws, no order-dependent mutation); under that contract
    the output is identical to the sequential run for every pool size.

    Shared lazy state (Montgomery contexts, fixed-base tables) must be
    forced before handing work to the pool — see [Params.force_tables].
    Nested {!map} calls from inside a worker run sequentially rather than
    deadlocking on the shared queue.

    Telemetry (multi-domain dispatches only): [parallel.pool_size] and
    [parallel.speedup]/[parallel.occupancy] gauges, [parallel.jobs] /
    [parallel.items] counters, a [parallel.chunk_size] histogram, and a
    per-slot [parallel.domain_util] gauge labeled [domain=0..size-1]
    (slot 0 is the submitting domain) giving each domain's busy fraction
    of the last dispatch — [top]'s pool util row plots the busiest. *)

type t
(** A fixed-size domain pool. *)

val create : domains:int -> t
(** [create ~domains] builds a pool of [max 1 domains] domains (clamped to
    64).  [domains = 1] spawns nothing and makes {!map} sequential. *)

val size : t -> int
(** Number of domains in the pool (including the submitter). *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Subsequent {!map} calls on the pool
    fall back to the sequential path.  Idempotent. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f arr] is [Array.map f arr] with the work split across the
    pool's domains in contiguous chunks; results are returned in input
    order.  If any application of [f] raises, one of the raised exceptions
    is re-raised after all in-flight chunks finish.  Runs sequentially when
    [size t = 1], when the array has fewer than two elements, or when
    called from inside a pool worker. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists, preserving order. *)

val map_range : t -> (int -> 'b) -> int -> 'b array
(** [map_range t f n] is [Array.init n f] with the index range split across
    the pool in contiguous chunks — {!map} without an input array, for
    shard- or slice-indexed work over preallocated flat buffers.  Same
    determinism, exception and sequential-fallback behavior as {!map}.
    @raise Invalid_argument when [n < 0]. *)

val default_size_from_env : unit -> int
(** Pool size requested by the [ALPENHORN_DOMAINS] environment variable
    (default [1] when unset or unparseable). *)

val get : unit -> t
(** The process-wide default pool, created on first use with
    {!default_size_from_env} domains (unless {!set_default_size} was called
    first).  Shut down automatically at exit. *)

val set_default_size : int -> unit
(** Replace the default pool with a fresh one of the given size (shutting
    down the previous default, if any).  Used by the [--domains] CLI
    flag. *)

val with_default : domains:int -> (unit -> 'a) -> 'a
(** [with_default ~domains f] runs [f] with the default pool temporarily
    replaced by a fresh pool of [domains] domains, restoring (and not
    shutting down) the previous default afterwards.  For tests and
    benches that sweep pool sizes. *)
