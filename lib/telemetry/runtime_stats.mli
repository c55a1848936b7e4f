(** Live OCaml runtime/GC observability: periodic sampling of
    [Gc.quick_stat] (and optionally the heap-walking [Gc.stat]) into the
    telemetry registry, plus a stop-the-world pause probe (DESIGN.md
    §12).

    Alpenhorn is meant to run for months sustaining millions of users
    (§7), and its round latency budget lives or dies on allocation rate,
    heap growth and GC pauses — none of which the protocol-level metrics
    (PRs 1, 3) see. This module closes that gap with zero dependencies
    and no [Gc.Memprof] (which would conflict with any future memory
    profiler the operator attaches):

    - {b Deltas as counters.} Each {!sample} diffs the previous
      reading against the current one and adds the increments to
      [runtime.gc.minor_collections], [runtime.gc.major_collections],
      [runtime.gc.compactions], [runtime.alloc.minor_words],
      [runtime.alloc.promoted_words] and [runtime.alloc.major_words]
      (word counters are saturating on 63-bit ints — a non-issue in
      practice). Counters survive {!Telemetry.Snapshot.take}
      [~reset:true] as per-window deltas, exactly like the protocol
      counters.
    - {b Levels as gauges.} [runtime.heap_words], [runtime.top_heap_words]
      and [runtime.stack_words] track the current heap; a [~full:true]
      sample also walks the heap ([Gc.stat]) for [runtime.live_words] and
      [runtime.free_words].
    - {b Pause probe.} Each {!sample} (at most once per
      [min_probe_interval]) times one forced minor collection —
      a genuine stop-the-world pause, merely moved in time — into
      [runtime.gc.pause_seconds], and mirrors the largest observation
      since the last registry reset into the [runtime.gc.max_pause_seconds]
      gauge the SLO engine reads. The probe measures real evacuation work
      the program was about to do anyway; its cost is bounded by the
      minor-heap size (microseconds at the default 256k words).

    Sampling is driven by whoever owns a loop: the metrics listener
    samples on scrape, [Deployment] and [Round_sim] sample at round
    close, and [bench e2e] samples per round so BENCH snapshots carry
    allocation and pause data. All metrics land in the registry given to
    {!install}, so they ride the existing exporters, the time-series ring
    and the SLO rules unchanged.

    The word counters cover every domain, pool workers and finished
    domains included. [Gc.quick_stat]'s word counts are program-wide but
    (OCaml 5.1) advance only at minor collections, so a window without
    one would read zero; each sample therefore also adds the sampling
    domain's own words since that domain's previous sample, read from
    its live counters ([Gc.minor_words], and [Gc.counters] for major
    words) and diffed only against that same domain's earlier reading.
    Program-wide growth counts only beyond the own words already added,
    so no word is counted twice. A domain that never samples shows its
    words at the next minor collection (at once when it ends); a domain
    that samples shows them up to its sample. The collection counts and
    heap levels come from [Gc.quick_stat]. Any domain may install and
    sample. *)

type t

val install : ?registry:Telemetry.registry -> ?min_probe_interval:float -> unit -> t
(** Register the gauges/counters/histograms (on {!Telemetry.default} by
    default) and take the baseline reading. [min_probe_interval]
    (seconds of wall time, default [0.5]) rate-limits the forced-minor
    pause probe; [0.] probes on every sample. Multiple installs coexist
    (each owns its own baseline). *)

val get_default : unit -> t
(** The process-wide sampler on {!Telemetry.default}, installed on first
    use (safe to call from any domain). [Deployment], [Round_sim] and
    the metrics endpoint share this instance, so no delta is counted
    twice. *)

val sample : ?full:bool -> t -> unit
(** Diff the current reading against the previous sample and publish (see
    above). [~full:true] additionally runs the heap-walking [Gc.stat]
    for [runtime.live_words]/[runtime.free_words] — noticeably more
    expensive; reserve it for round boundaries. *)
