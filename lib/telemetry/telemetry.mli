(** Lightweight runtime telemetry: counters, gauges, log-scale histograms
    and spans behind a zero-dependency registry.

    Design goals (DESIGN.md §7):

    - {b Cheap enough to leave on.} A counter hit is one lock-free atomic
      increment on a pre-resolved handle — no hashing, no allocation.
      Registration ([Counter.v] etc.) is the only slow path and happens
      once, at component construction.
    - {b Domain-safe.} Counters and gauges are atomics; histogram
      observations take a per-histogram mutex and the registry table /
      span list are mutex-guarded, so the parallel execution layer
      (DESIGN.md §11) can record metrics from worker domains. Clock swaps
      ({!set_clock} / {!with_clock}) are still reserved to the
      orchestrating domain, between parallel regions.
    - {b Clock-agnostic.} Every registry carries a clock. The default is
      wall time ({!wall_clock}); the discrete-event simulator swaps in the
      {!Alpenhorn_sim.Des} clock via {!with_clock}, so a simulated round
      emits the same trace schema as a real one. Each span records which
      clock it was measured on.
    - {b Snapshot / reset between rounds.} {!Snapshot.take} captures an
      immutable view; with [~reset:true] it also zeroes the live metrics,
      so per-round deltas are just snapshots.
    - {b Mergeable histograms.} All histograms share one fixed log-2
      bucket layout, so merging two snapshots is pointwise addition —
      associative and commutative, safe to combine across shards.

    Exporters: a human-readable table ({!Snapshot.pp_table}), a JSON
    snapshot ({!Snapshot.to_json}, read back by {!Snapshot.of_json}), and
    Chrome [trace_event] JSON ({!Snapshot.to_chrome_trace}) loadable in
    [about:tracing] / Perfetto for flamegraph viewing. {!Json} prints and
    parses every JSON document the telemetry library emits. *)

type registry

val create : ?clock:(unit -> float) -> ?clock_kind:string -> unit -> registry
(** A fresh registry. [clock] defaults to {!wall_clock} with kind
    ["wall"]; pass the DES clock with [~clock_kind:"sim"] for simulated
    time. *)

val default : registry
(** The process-wide registry all built-in instrumentation uses. *)

val wall_clock : unit -> float
(** [Unix.gettimeofday]. *)

val now : registry -> float
(** Current reading of the registry's clock. *)

val since_epoch : registry -> float
(** Current clock reading relative to the registry epoch — the timebase
    spans and structured events are recorded on. *)

val clock_kind : registry -> string

val set_clock : registry -> kind:string -> (unit -> float) -> unit
(** Swap the clock and re-anchor the epoch (span timestamps are relative
    to the moment of the swap). *)

val with_clock : registry -> kind:string -> (unit -> float) -> (unit -> 'a) -> 'a
(** Run a thunk under a temporary clock, restoring the previous clock,
    kind and epoch afterwards (exception-safe). Spans recorded inside keep
    their simulated timestamps. *)

(** {1 Metrics} *)

type labels = (string * string) list
(** Label sets distinguish instances of a metric (e.g.
    [("server", "0")]). They are sorted at registration, so order never
    matters. *)

val metric_key : string -> labels -> string
(** [name], or [name{k=v,...}] with the labels in the given order: the
    key the table and the trace timelines print, and the exact key a
    snapshot reader selects by ({!Snapshot.counter}). *)

module Counter : sig
  type t

  val v : registry -> ?labels:labels -> string -> t
  (** Find-or-create. Returns the {e same} handle for the same
      name + labels, so increments from different components aggregate.
      @raise Invalid_argument if the name is already registered as a
      different metric kind. *)

  val inc : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val v : registry -> ?labels:labels -> string -> t
  val set : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  (** Fixed log-2 bucket layout shared by every histogram: bucket [i]
      covers [[2^(i-32), 2^(i-31))], clamped at both ends — fine-grained
      enough for nanosecond latencies and million-message batch sizes
      alike. *)

  val bucket_count : int
  val bucket_of : float -> int
  val bucket_lower : int -> float
  (** Lower bound of bucket [i]. *)

  val v : registry -> ?labels:labels -> string -> t
  val observe : t -> float -> unit

  (** Immutable capture of a histogram; the mergeable form. *)
  type snap = {
    count : int;
    sum : float;
    min_v : float;  (** [infinity] when [count = 0] *)
    max_v : float;  (** [neg_infinity] when [count = 0] *)
    buckets : int array;
  }

  val empty : snap
  val snapshot : t -> snap

  val merge : snap -> snap -> snap
  (** Pointwise bucket addition; associative and commutative with
      [empty] as identity. *)

  val mean : snap -> float
  (** 0 when empty. *)

  val quantile : snap -> float -> float
  (** [quantile s q] with [q] in [0, 1]: estimate by linear interpolation
      inside the covering bucket, clamped to the observed min/max.
      0 when empty. *)
end

(** {1 Spans} *)

module Span : sig
  val with_ : registry -> ?labels:labels -> string -> (unit -> 'a) -> 'a
  (** Time a lexical scope on the registry clock. Nesting depth is
      tracked, so child spans render inside their parent in the trace
      view. Exception-safe: the span is recorded even if the thunk
      raises.

      A span is timed entirely on the clock in effect when it {e opens}:
      the epoch-relative start, the duration clock and the recorded clock
      kind are all captured at open. Swapping the registry clock
      ({!set_clock} / {!with_clock}) while a span is open therefore cannot
      mix timebases — the straddling span keeps its opening clock. *)

  val emit :
    registry -> ?labels:labels -> ?depth:int -> name:string -> ts:float -> dur:float -> unit -> unit
  (** Record a span with explicit timing — for event-driven code (the DES
      replay) where begin/end do not share a lexical scope. [ts] is an
      absolute clock reading; it is stored relative to the registry
      epoch. *)
end

(** {1 JSON}

    Every telemetry document is printed by {!Json.to_string} and read by
    {!Json.parse}: the snapshot ({!Snapshot.to_json}), the Chrome trace,
    the time-series lines, structured events, the SLO report and the
    endpoint's [/series] body. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact RFC 8259 text. Strings escape the quote, the backslash
      and every control byte ([\n], [\r], [\t], else [\u00XX]); other
      bytes, UTF-8 included, are copied. A finite number prints in the
      fewest significant digits that read back to the same double; a
      non-finite one prints as [null], which {!to_num} reads as [nan]. *)

  val int : int -> t
  (** [Num] of an int (exact up to 2{^53}). *)

  val strings : (string * string) list -> t
  (** An object of string members: a label set. *)

  val parse : string -> t option
  (** Strict RFC 8259 parser (no external dependencies). String escapes
      are decoded ([\uXXXX] to UTF-8, surrogate pairs combined, lone
      surrogates to U+FFFD). [None] on any deviation from the grammar. *)

  val is_valid : string -> bool
  (** [parse s <> None] — used by tests and the bench smoke target to
      validate emitted snapshots. *)

  (** {2 Decoding}

      Total accessors: [None] on the wrong kind, never an exception. *)

  val member : string -> t -> t option
  (** Object field lookup; [None] on non-objects. *)

  val get : string -> (t -> 'a option) -> t -> 'a option
  (** [get k f v] decodes member [k] of [v] with [f]. *)

  val index : int -> t -> t option

  val to_num : t -> float option
  (** A number, or [null] as [nan]. *)

  val to_int : t -> int option
  (** An integral number of magnitude at most 2{^53}. *)

  val to_str : t -> string option

  val to_list : (t -> 'a option) -> t -> 'a list option
  (** An array whose every element decodes. *)

  val to_fields : (t -> 'a option) -> t -> (string * 'a) list option
  (** An object whose every member decodes, in document order. *)

  val number_leaves : t -> (string * float) list
  (** Every numeric leaf with its dotted path (array elements indexed), in
      document order — the flattening {!Alpenhorn_bench_diff} compares
      across benchmark snapshots. *)
end

(** {1 Snapshots and exporters} *)

module Snapshot : sig
  type span = {
    name : string;
    labels : labels;
    ts : float;  (** seconds since the registry epoch *)
    dur : float;  (** seconds *)
    depth : int;
    clock : string;  (** clock kind in effect when recorded *)
  }

  type t = {
    clock : string;  (** registry clock kind at capture time *)
    counters : (string * labels * int) list;
    gauges : (string * labels * float) list;
    histograms : (string * labels * Histogram.snap) list;
    spans : span list;  (** in recording order *)
    dropped_spans : int;
  }

  val take : ?reset:bool -> registry -> t
  (** Capture every metric and span, deterministically ordered by
      (name, labels). [~reset:true] zeroes counters, gauges and
      histograms, clears spans and re-anchors the epoch —
      snapshot-and-reset is how per-round deltas are produced.

      Reset is {e linearizable against concurrent writers}: each
      counter/gauge is captured and zeroed in a single atomic exchange,
      and each histogram in one critical section under its own lock, so
      an increment racing the reset lands either in this snapshot or in
      the live metric afterwards — never in both and never lost. Summing
      a series of reset snapshots plus the final live values therefore
      always equals everything ever recorded, regardless of how many
      worker domains are writing (the conservation law the 4-domain
      regression test in test_telemetry.ml asserts). Spans enqueued by
      another domain while [take] runs are not similarly protected:
      [push_span] takes the registry mutex, so a span lands wholly before
      or wholly after the snapshot. *)

  val take_metrics : registry -> t
  (** {!take} without the spans ([spans = []], [dropped_spans] as
      recorded) and without reset: what a periodic sampler keeps, at a
      cost that does not grow with the spans the registry holds. *)

  (** {2 Selecting a metric}

      One rule for every reader: a bare name selects every label set of
      that name, and [name{k=v,...}] as {!metric_key} prints it selects
      exactly that one. *)

  val counter : t -> string -> int option
  (** The selected counters summed; [None] when nothing matches. *)

  val gauges : t -> string -> float list
  (** The selected gauges, in snapshot order; the caller takes the max
      or the min it needs. *)

  val histogram : t -> string -> Histogram.snap option
  (** The selected histograms merged; [None] when nothing matches. *)

  val counter_sum : t -> string -> int
  (** {!counter}, 0 if absent. *)

  val hist_sum : t -> string -> float
  (** The [sum] of {!histogram}, 0 if absent. *)

  val span_total : t -> string -> float
  (** Total duration over all spans with this name. *)

  val span_count : t -> string -> int

  val pp_table : Format.formatter -> t -> unit
  (** Human-readable per-round table: counters, gauges, histogram
      count/mean/p50/p99/max, and per-name span rollups. *)

  val to_json : t -> string
  (** The snapshot document (schema in DESIGN.md §7), printed by
      {!Json.to_string}: every number reads back to the same double, and
      {!of_json} decodes it to an equal snapshot. *)

  val of_json : Json.t -> (t, string) result
  (** The one decoder of the snapshot document, bare or wrapped under a
      ["telemetry"] member (the labeled [/metrics.json] and the
      [--metrics-json] machine wrapper). Strict: a member of the wrong
      kind, a fractional count or a histogram without
      {!Histogram.bucket_count} buckets is an [Error]. Total: it never
      raises. *)

  val to_chrome_trace : t -> string
  (** Chrome [trace_event] JSON: one ["ph":"X"] complete event per span,
      timestamps in microseconds, track chosen from the ["server"] label
      when present. Loadable in [about:tracing]. *)
end
