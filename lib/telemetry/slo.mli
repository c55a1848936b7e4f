(** SLO / health engine: declarative rules evaluated over snapshots
    (DESIGN.md §9).

    A {!rule} names a scalar {!source} derived from a
    {!Telemetry.Snapshot.t} (counter sum, worst gauge, histogram
    statistic, span statistic, or a hit-rate over two counters), a
    comparison and a threshold. {!evaluate} turns a rule list and a
    snapshot into a pass/fail {!report}. Rules whose metric is absent
    from the snapshot are {e skipped} (reported with [value = None],
    passing), so one rule set serves wall-clock rounds, simulated rounds
    and partial deployments alike.

    {!default_rules} is Alpenhorn's built-in set: round-deadline misses
    for both phases, the failure-model bounds, zero undecryptable
    onions, DES queue quiescence and the scale budgets. Every source
    reads its metric through {!Telemetry.Snapshot}'s one selection rule,
    so a bare name judges every label set and a [name{k=v,...}] key one
    of them. *)

type source =
  | Counter of string  (** {!Telemetry.Snapshot.counter} *)
  | Gauge of string  (** max over the selected gauges *)
  | Gauge_min of string
      (** min over the selected gauges — the worst reading when the
          rule is a floor (e.g. every fleet instance up) *)
  | Hist_mean of string
      (** mean of the merged histogram; an empty one skips the rule *)
  | Hist_p99 of string
  | Hist_max of string
  | Span_total of string  (** summed duration of spans with this name *)
  | Span_max of string  (** slowest single span *)
  | Span_count of string
  | Hit_rate of string * string
      (** [Hit_rate (hits, misses)] = hits / (hits + misses); absent when
          both counters are missing or their sum is zero *)

type cmp = Le | Ge

type rule = {
  name : string;
  description : string;
  source : source;
  cmp : cmp;
  threshold : float;
}

val rule : name:string -> description:string -> source -> cmp -> float -> rule

val value_of : Telemetry.Snapshot.t -> source -> float option
(** The scalar a source denotes in this snapshot; [None] when the
    underlying metric is absent (or a hit-rate has no observations). *)

type check = {
  rule : rule;
  value : float option;  (** [None] = metric absent, rule skipped *)
  pass : bool;
}

type report = { checks : check list; healthy : bool }

val evaluate : rule list -> Telemetry.Snapshot.t -> report

val default_rules :
  ?addfriend_deadline:float ->
  ?dialing_deadline:float ->
  ?max_consecutive_aborts:float ->
  ?recovery_ceiling:float ->
  ?scale_bytes_per_client_ceiling:float ->
  ?scale_words_per_client_ceiling:float ->
  unit ->
  rule list
(** Alpenhorn's built-in rule set. Deadlines and the failure-model
    bounds ([max_consecutive_aborts] over the
    [faults.consecutive_aborts] gauge, [recovery_ceiling] in seconds over
    the [faults.recovery_seconds] histogram — DESIGN.md §10) default to
    [infinity] (never fail), so callers opt into exactly the bounds they
    can justify; the zero-drop and DES-quiescence rules are always
    armed. Fault metrics are absent in a fault-free run, so those rules
    skip rather than pass vacuously.

    Scale rules guard million-user rounds (DESIGN.md §15):
    [scale_bytes_per_client_ceiling] bounds the [scale.bytes_per_client]
    gauge (a client's §5.1 shard download) and
    [scale_words_per_client_ceiling] the [scale.words_per_client] gauge
    (server-side peak heap amortized per client); both default [infinity]
    and skip when no scale round has run. *)

val pp_report : Format.formatter -> report -> unit
(** One line per rule: [[ok|FAIL|skip] name value cmp threshold]. *)

val report_to_json : report -> string
(** Printed by {!Telemetry.Json.to_string}: a non-finite threshold or
    value, like an absent value, is [null]. *)
