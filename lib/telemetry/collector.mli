(** Fleet collector: an orchestrator-side scraper that polls the
    [/metrics.json] endpoint of every process in a multi-process
    deployment, merges the per-process snapshots into one fleet snapshot
    under [instance]/[role] labels, keeps fleet history in a
    {!Timeseries} ring, and evaluates fleet-wide SLO rules over the
    merged view (DESIGN.md §14).

    The HTTP client is {e injected}: [lib/net] depends on this library,
    so the collector takes a {!fetch} function ([Listener.fetch] in the
    CLI, a canned-document function in tests). The orchestrator's own
    registry joins the fleet as a {!Local} instance — no loopback HTTP
    round trip for the process doing the scraping.

    A body is decoded by {!Telemetry.Snapshot.of_json}, the snapshot
    document's one decoder; one that does not parse or decode counts as
    a failed scrape. [top] reads [/metrics.json] only through a
    collector: one instance for a single endpoint, one per process with
    [--fleet]; each frame judges {!merged} by the SLO rules.

    Staleness semantics: a failed scrape freezes the instance's last
    good snapshot in the merged view (cumulative metrics stay truthful)
    while two synthetic gauges report the failure —
    [fleet.instance_up{instance,role}] drops to [0] and
    [fleet.staleness_seconds{instance,role}] climbs — so the stock
    {!Slo} engine turns a dead or hung process into an SLO breach with
    no new machinery. The fetch error's class prefix ([refused] = dead,
    [timeout] = hung) is kept in the instance status for operators. *)

type fetch = host:string -> port:int -> string -> (int * string, string) result
(** The shape of {!Alpenhorn_net.Listener.fetch} applied to a path:
    [(status, body)] on success, a class-prefixed message on failure. *)

type target =
  | Remote of { host : string; port : int }  (** scrape [GET /metrics.json] *)
  | Local of Telemetry.registry  (** snapshot in-process, no HTTP *)

type instance = { name : string; role : string; mutable target : target }

val instance : ?role:string -> name:string -> target -> instance
(** [role] defaults to the [name] prefix before the first ['-']
    (["mixer-2"] → ["mixer"]), or the whole name without one. *)

type status =
  | Fresh  (** the last scrape succeeded *)
  | Stale of string  (** scraped successfully before; now failing (reason) *)
  | Never of string  (** no successful scrape yet (reason) *)

type t

val create : ?capacity:int -> ?clock:(unit -> float) -> fetch:fetch -> instance list -> t
(** [capacity] (default 720) sizes the fleet {!Timeseries} ring; [clock]
    (default {!Telemetry.wall_clock}) timestamps scrapes and staleness.
    @raise Invalid_argument on an empty list or duplicate names. *)

val instances : t -> instance list

val set_target : t -> name:string -> target -> unit
(** Repoint one instance — a respawned server comes back on fresh
    ephemeral ports. @raise Invalid_argument on an unknown name. *)

val scrape : t -> unit
(** Poll every instance once, rebuild the merged fleet snapshot
    (instance labels + liveness gauges) and append it to the ring.
    Failures are recorded per instance, never raised. *)

val merged : t -> Telemetry.Snapshot.t
(** The fleet snapshot from the most recent {!scrape} (empty before the
    first). Every metric and span carries the owning instance's labels,
    kept sorted as a registry keeps them, so an exact key selects a
    merged metric; the synthetic [fleet.instance_up] /
    [fleet.staleness_seconds] gauges cover all instances, scraped or
    not. *)

val ring : t -> Timeseries.t
val scrapes : t -> int

val status : t -> (string * status * float) list
(** Per instance: name, scrape status and seconds since last success. *)

val fleet_rules : ?max_staleness:float -> unit -> Slo.rule list
(** Fleet-wide rules over the merged snapshot: zero [rpc.errors] summed
    over every instance, every [fleet.instance_up] at [1] (Gauge_min —
    the worst instance), and the stalest instance under
    [max_staleness] (default [infinity]). *)

val evaluate : t -> Slo.rule list -> Slo.report
(** The rules against the current merged snapshot. *)

val traces : t -> (int * (Trace.ctx * Telemetry.Snapshot.span) list) list
(** {!Trace.traces} over the merged snapshot: spans emitted by different
    processes under the same trace id stitch into one timeline, each
    span still carrying its [instance] label. *)

val trace_instances : (Trace.ctx * Telemetry.Snapshot.span) list -> string list
(** Distinct [instance] labels appearing in one stitched trace, sorted. *)

val cross_process_traces :
  ?min_instances:int -> t -> (int * (Trace.ctx * Telemetry.Snapshot.span) list) list
(** Traces whose spans cover at least [min_instances] (default 2)
    distinct instances — the proof that propagation crossed processes. *)

(** {1 Dashboard rows} *)

type row = {
  row_name : string;
  row_role : string;
  row_up : bool;
  row_status : string;  (** ["up"], or the class-prefixed fetch error *)
  row_staleness : float;
  row_rpc_calls : int;
  row_rpc_errors : int;
  row_rpc_p99 : float;  (** seconds; [0.] before any request *)
  row_spans : int;
  row_heap_words : float;  (** [0.] when the instance samples no runtime stats *)
}

val rows : t -> row list
(** One row per instance from its last known snapshot — the [top
    --fleet] data source. *)
