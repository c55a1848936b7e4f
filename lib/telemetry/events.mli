(** Structured event log: a fixed-capacity ring of severity-tagged events
    (DESIGN.md §9).

    Metrics aggregate; events narrate. Round starts and closes, chunk
    forwards, rate-limit trips, cache evictions and decode failures land
    here with a timestamp on the owning registry's clock (epoch-relative,
    like spans), a severity, optional labels and a free-form detail
    string. The ring overwrites its oldest entry when full — logging is
    O(1) forever, and the number of overwritten events is reported as
    {!dropped} — so the log is safe to leave enabled in a server that runs
    for months.

    The JSON-lines exporter ({!to_jsonl}) emits one self-contained JSON
    object per line; the [--events FILE] CLI flag writes it, and a
    simulated round produces the same schema as a wall-clock one (the
    [clock] field tells them apart). *)

type severity = Debug | Info | Warn | Error

type event = {
  ts : float;  (** seconds since the registry epoch, on its clock *)
  clock : string;  (** clock kind at logging time ("wall" / "sim") *)
  severity : severity;
  name : string;  (** dotted event name, e.g. ["round.close"] *)
  labels : Telemetry.labels;
  detail : string;
}

type t

val create : ?capacity:int -> Telemetry.registry -> t
(** Ring of [capacity] slots (default 4096) timestamped on [reg]'s
    clock.
    @raise Invalid_argument if [capacity < 1]. *)

val default : t
(** Process-wide log all built-in instrumentation writes to, bound to
    {!Telemetry.default}. *)

val log :
  t -> ?severity:severity -> ?labels:Telemetry.labels -> ?detail:string -> string -> unit
(** Append one event ([severity] defaults to [Info]). O(1); overwrites
    the oldest event when the ring is full. *)

val length : t -> int

val dropped : t -> int
(** Events overwritten since creation (or the last {!clear}). *)

val to_list : t -> event list
(** Retained events, oldest first. *)

val clear : t -> unit

val event_to_json : event -> string
(** One event as a JSON object printed by {!Telemetry.Json.to_string}
    (no trailing newline). *)

val to_jsonl : t -> string
(** JSON-lines: every retained event, oldest first, one object per line.
    Each line individually satisfies {!Telemetry.Json.is_valid}. *)
