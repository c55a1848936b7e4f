(** Compare two benchmark / metrics JSON snapshots and flag regressions.

    Works on any JSON document by flattening numeric leaves to dotted
    paths ([after.pairing], [speedup.ibe_encrypt], …) — the shape of the
    checked-in [BENCH_*.json] files — and decodes a telemetry snapshot
    document ([--metrics-json] output, bare or under ["telemetry"]) with
    {!Alpenhorn_telemetry.Telemetry.Snapshot.of_json}, keying metric
    entries by [section.name{labels}] instead of array position.

    All series are lower-is-better; the [bench_diff] executable wraps
    this as the CI perf gate (see README). *)

type row = {
  series : string;
  before_v : float;
  after_v : float option;  (** [None]: series disappeared from the new snapshot *)
  pct : float;  (** percent change, positive = slower *)
  regressed : bool;
  carried : bool;
      (** matched a [carry] prefix: reported for trend visibility, never
          regresses (runtime/GC numbers in BENCH files) *)
}

val flatten : Alpenhorn_telemetry.Telemetry.Json.t -> (string * float) list
(** Numeric series of a document (see above for the keying). *)

val diff :
  threshold_pct:float ->
  ?series:string list ->
  ?carry:string list ->
  before:Alpenhorn_telemetry.Telemetry.Json.t ->
  after:Alpenhorn_telemetry.Telemetry.Json.t ->
  unit ->
  row list
(** One row per numeric series of [before] (optionally restricted to
    those whose path starts with one of [series]). A series is regressed
    when [after] exceeds [before] by more than [threshold_pct] percent.
    Series whose path starts with a [carry] prefix are included in the
    report even when outside [series], but can never regress — the
    ignore-but-carry channel for runtime/GC data. *)

val regressions : row list -> row list

val pp : Format.formatter -> row list -> unit
