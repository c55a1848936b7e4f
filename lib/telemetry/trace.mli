(** Per-message causal tracing (DESIGN.md §9).

    A sampled message gets a {!ctx} — (trace id, span id, parent) — that
    follows it out-of-band as it flows client → entry → each mixnet hop →
    mailbox → recipient scan. Each stage records an ordinary
    {!Telemetry.Span} whose labels carry the context ([trace], [span],
    [parent]), so every existing exporter (table, JSON, Chrome
    [trace_event]) already understands traced spans, and the spans of one
    message stitch into a causal chain across servers and even across
    clock domains (a simulated round and a wall-clock round produce the
    same schema).

    {b Privacy invariant: a context never touches the wire.} Contexts are
    OCaml values carried alongside messages; serialized onions, friend
    requests and mailbox entries are byte-identical with tracing enabled
    or disabled (enforced by test). A trace id inside a ciphertext or
    header would be a linkable tag that defeats the mixnet — see
    DESIGN.md §9.

    Sampling uses a private deterministic generator, never the protocol
    DRBG, so enabling tracing cannot perturb a seeded run. *)

type ctx = {
  trace_id : int;  (** one per sampled message *)
  span_id : int;  (** unique within the tracer *)
  parent : int option;  (** parent span id; [None] for the root *)
}

type t
(** A tracer: sampling state plus the registry traced spans land in. *)

val create : ?rate:float -> ?seed:int -> Telemetry.registry -> t
(** [rate] in [0, 1] is the fraction of candidate messages that get a
    context (default 1.0 — trace everything); [seed] makes the sampling
    sequence reproducible.
    @raise Invalid_argument if [rate] is outside [0, 1]. *)

val registry : t -> Telemetry.registry

val sample : t -> ctx option
(** Sampling decision for one candidate message: a fresh root context, or
    [None] (the message flows untraced). Deterministic given [seed]. *)

val child : t -> ctx -> ctx
(** A child context for the next causal stage of the same trace. *)

(** {1 Recording} *)

val emit :
  t -> ctx -> ?labels:Telemetry.labels -> name:string -> ts:float -> dur:float -> unit -> unit
(** Record a span for this context with explicit timing (event-driven
    code, e.g. the DES replay). [ts] is an absolute reading of the
    registry clock, as for {!Telemetry.Span.emit}. *)

val with_ : t -> ctx -> ?labels:Telemetry.labels -> string -> (unit -> 'a) -> 'a
(** Time a lexical scope as a span of this context. *)

(** {1 Label encoding} *)

val labels_of : ctx -> Telemetry.labels
val ctx_of_labels : Telemetry.labels -> ctx option

(** {1 Stitching a snapshot back into traces} *)

val traces : Telemetry.Snapshot.t -> (int * (ctx * Telemetry.Snapshot.span) list) list
(** Traced spans grouped by trace id, each group sorted by start time —
    the stitched causal timeline of one message. *)

val pp_timelines : Format.formatter -> Telemetry.Snapshot.t -> unit
(** Human-readable per-message timeline summary: one block per trace,
    one line per span ([ts +dur [span <-parent] name{labels} (clock)]). *)
