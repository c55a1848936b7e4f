(** Fixed-capacity time-series ring over telemetry snapshots, with
    windowed queries (DESIGN.md §12).

    Snapshots are point-in-time; an operator watching a live deployment
    needs {e history}: rounds per second over the last minute, the p99
    unwrap latency of the last five minutes, the heap-growth trend. A
    {!t} is a ring of timestamped samples — each sample is one
    {!Telemetry.Snapshot.t}, the cumulative counters, gauges and
    histograms without the spans — recorded at round boundaries (and
    on every fleet scrape by a {!Collector}). The ring overwrites its
    oldest sample when full, so recording is O(metrics) forever and a
    server that runs for months keeps a bounded sliding window.

    Windowed queries work on {e deltas between consecutive samples},
    clamped at zero, so they stay correct across
    [Snapshot.take ~reset:true] boundaries (a reset makes the next
    cumulative value smaller; the clamp discards exactly that
    discontinuity and nothing else):

    - {!rate}: counter increase per second over the window.
    - {!gauge_stats}: min / max / last of a gauge over the window.
    - {!quantile}: over the merged {e delta} histogram of the window
      (bucket-wise, the increments of each consecutive pair), so p50/p99
      describe only observations inside the window.
    - {!points}: one value per sample for sparklines — a counter yields
      its per-interval rate, a gauge its level, a histogram its
      per-interval observation count.

    Every query takes a metric key and reads each sample through the
    snapshot's one selection rule ({!Telemetry.Snapshot.counter}): a
    bare name label-merges every instance (counters sum, gauges max,
    histograms merge), and [name{k=v,...}] as {!Telemetry.metric_key}
    prints it selects one.

    Timestamps come from the owning registry's clock, so a DES-driven
    simulation records simulated seconds and a live deployment wall
    seconds — the queries and the [top] dashboard work identically on
    both. {!to_jsonl}/{!of_jsonl} round-trip the ring as JSON-lines (one
    snapshot document per line), which is how [serve-metrics --record]
    persists a run and [top --replay] watches it offline. *)

type t

type sample = { ts : float; snap : Telemetry.Snapshot.t }
(** One recorded sample: the snapshot at [ts], its spans dropped. *)

val create : ?capacity:int -> Telemetry.registry -> t
(** Ring of [capacity] samples (default 720) recording from the given
    registry.
    @raise Invalid_argument if [capacity < 2] (windows need pairs). *)

val create_detached : ?capacity:int -> unit -> t
(** A ring not bound to a registry — populated via {!record_snapshot}
    (the {!Collector}'s ring, which [top] renders) or {!of_jsonl}
    ([top --replay]). {!record} on a detached ring raises
    [Invalid_argument]. *)

val default : t
(** Process-wide ring on {!Telemetry.default}; [Deployment] and
    [Round_sim] record into it at every round close, so it fills during
    real rounds with no configuration. *)

val record : t -> unit
(** Append one sample: [Snapshot.take_metrics] at the registry clock's
    current reading. A clock reading {e earlier} than the newest
    retained sample means the registry clock was restarted (a new DES
    run): the ring clears and starts a new epoch, so windows never mix
    two timelines. Thread-safe. *)

val record_snapshot : t -> ts:float -> Telemetry.Snapshot.t -> unit
(** Append an externally captured snapshot at an explicit timestamp.
    @raise Invalid_argument if [ts] precedes the newest sample. *)

val capacity : t -> int
val length : t -> int

val samples : t -> sample list
(** Retained samples, oldest first. *)

val last_ts : t -> float option
(** Timestamp of the newest sample. *)

val span_seconds : t -> float
(** [newest ts - oldest ts]; [0.] with fewer than two samples. *)

val mem : t -> string -> bool
(** Does any retained sample hold a metric the key selects? *)

val rate : t -> ?window:float -> string -> float
(** Counter increase per second over the trailing [window] seconds
    (default: the whole ring), reset-tolerant as described above. [0.]
    when the key is absent or the window holds fewer than two samples. *)

val gauge_stats : t -> ?window:float -> string -> (float * float * float) option
(** [(min, max, last)] of a gauge over the window; [None] if absent. *)

val quantile : t -> ?window:float -> string -> float -> float
(** [quantile t name q] over the window's merged delta histogram, whose
    [min_v] / [max_v] are bucket-resolution estimates; [0.] when
    empty. *)

val points : t -> ?window:float -> string -> (float * float) list
(** Sparkline series, oldest first (see above for the per-kind value).
    Counter and histogram series have one point per consecutive pair
    (timestamped at the newer sample); gauges one per sample. *)

val to_jsonl : t -> string
(** One line per retained sample, oldest first:
    [{"ts":_,"telemetry":doc}], [doc] the sample's snapshot document
    ({!Telemetry.Snapshot.to_json}). *)

val of_jsonl : string -> (t, string) result
(** Parse a {!to_jsonl} dump into a detached ring sized to fit it
    exactly, each document decoded by {!Telemetry.Snapshot.of_json};
    every value reads back bit for bit (a non-finite gauge as [nan]).
    [Error] names the first line that is not a sample. *)
