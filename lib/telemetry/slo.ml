(* Declarative SLO rules evaluated over immutable snapshots: the health
   engine never touches live metrics, so evaluation is free of
   observer effects and a simulated round is checked by exactly the same
   rules as a wall-clock one. *)

type source =
  | Counter of string
  | Gauge of string
  | Gauge_min of string
  | Hist_mean of string
  | Hist_p99 of string
  | Hist_max of string
  | Span_total of string
  | Span_max of string
  | Span_count of string
  | Hit_rate of string * string

type cmp = Le | Ge

type rule = { name : string; description : string; source : source; cmp : cmp; threshold : float }

let rule ~name ~description source cmp threshold = { name; description; source; cmp; threshold }

(* Every source reads its metric through the Snapshot selection rule.
   Gauges keep one value per label set; health cares about the worst.
   For a ceiling the worst is the max, for a floor it is the min. *)
let worst_gauge f snap key =
  match Telemetry.Snapshot.gauges snap key with
  | [] -> None
  | v :: vs -> Some (List.fold_left f v vs)

(* an empty histogram has no statistic to judge: the rule skips *)
let histogram snap key =
  match Telemetry.Snapshot.histogram snap key with
  | Some h when h.Telemetry.Histogram.count > 0 -> Some h
  | _ -> None

let span_max (snap : Telemetry.Snapshot.t) name =
  List.fold_left
    (fun acc (sp : Telemetry.Snapshot.span) ->
      if sp.name = name then Some (match acc with None -> sp.dur | Some a -> Float.max a sp.dur)
      else acc)
    None snap.spans

let rec value_of snap = function
  | Counter n -> Option.map float_of_int (Telemetry.Snapshot.counter snap n)
  | Gauge n -> worst_gauge Float.max snap n
  | Gauge_min n -> worst_gauge Float.min snap n
  | Hist_mean n -> Option.map Telemetry.Histogram.mean (histogram snap n)
  | Hist_p99 n -> Option.map (fun s -> Telemetry.Histogram.quantile s 0.99) (histogram snap n)
  | Hist_max n -> Option.map (fun s -> s.Telemetry.Histogram.max_v) (histogram snap n)
  | Span_total n ->
    if Telemetry.Snapshot.span_count snap n = 0 then None
    else Some (Telemetry.Snapshot.span_total snap n)
  | Span_max n -> span_max snap n
  | Span_count n -> Some (float_of_int (Telemetry.Snapshot.span_count snap n))
  | Hit_rate (hits, misses) -> begin
    match (value_of snap (Counter hits), value_of snap (Counter misses)) with
    | None, None -> None
    | h, m ->
      let h = Option.value ~default:0.0 h and m = Option.value ~default:0.0 m in
      if h +. m <= 0.0 then None else Some (h /. (h +. m))
  end

type check = { rule : rule; value : float option; pass : bool }

type report = { checks : check list; healthy : bool }

let check_rule snap r =
  match value_of snap r.source with
  | None -> { rule = r; value = None; pass = true } (* metric absent: rule does not apply *)
  | Some v ->
    let pass = match r.cmp with Le -> v <= r.threshold | Ge -> v >= r.threshold in
    { rule = r; value = Some v; pass }

let evaluate rules snap =
  let checks = List.map (check_rule snap) rules in
  { checks; healthy = List.for_all (fun c -> c.pass) checks }

(* ---- Alpenhorn's built-in rule set ---- *)

let default_rules ?(addfriend_deadline = infinity) ?(dialing_deadline = infinity)
    ?(max_consecutive_aborts = infinity) ?(recovery_ceiling = infinity)
    ?(scale_bytes_per_client_ceiling = infinity) ?(scale_words_per_client_ceiling = infinity) () =
  [
    rule ~name:"round.addfriend.deadline"
      ~description:"slowest add-friend round finishes within its deadline"
      (Span_max "round.addfriend") Le addfriend_deadline;
    rule ~name:"round.dialing.deadline"
      ~description:"slowest dialing round finishes within its deadline"
      (Span_max "round.dialing") Le dialing_deadline;
    rule ~name:"faults.consecutive_aborts"
      ~description:"worst streak of aborted round attempts stays bounded"
      (Gauge "faults.consecutive_aborts") Le max_consecutive_aborts;
    rule ~name:"faults.recovery_time"
      ~description:"slowest abort-to-publish recovery stays under its ceiling"
      (Hist_max "faults.recovery_seconds") Le recovery_ceiling;
    rule ~name:"mix.drops" ~description:"no onion failed to decrypt at any hop"
      (Counter "mix.onions_dropped") Le 0.0;
    rule ~name:"sim.quiescent" ~description:"DES event queue drained at snapshot time"
      (Gauge "sim.des_pending") Le 0.0;
    rule ~name:"scale.bytes_per_client"
      ~description:"per-client shard download stays under its byte budget (§5.1)"
      (Gauge "scale.bytes_per_client") Le scale_bytes_per_client_ceiling;
    rule ~name:"scale.words_per_client"
      ~description:"server-side peak heap per client stays under its word budget"
      (Gauge "scale.words_per_client") Le scale_words_per_client_ceiling;
  ]

(* ---- rendering ---- *)

let cmp_to_string = function Le -> "<=" | Ge -> ">="

let pp_report fmt r =
  Format.fprintf fmt "SLO health report: %s@\n" (if r.healthy then "HEALTHY" else "UNHEALTHY");
  List.iter
    (fun c ->
      let status = if not c.pass then "FAIL" else if c.value = None then "skip" else "ok" in
      let value = match c.value with None -> "-" | Some v -> Printf.sprintf "%g" v in
      Format.fprintf fmt "  [%-4s] %-28s %10s %s %g  (%s)@\n" status c.rule.name value
        (cmp_to_string c.rule.cmp) c.rule.threshold c.rule.description)
    r.checks

let report_to_json r =
  let check c =
    Telemetry.Json.(
      Obj
        [
          ("rule", Str c.rule.name);
          ("description", Str c.rule.description);
          ("cmp", Str (cmp_to_string c.rule.cmp));
          ("threshold", Num c.rule.threshold);
          ("value", match c.value with None -> Null | Some v -> Num v);
          ("pass", Bool c.pass);
        ])
  in
  Telemetry.Json.(
    to_string (Obj [ ("healthy", Bool r.healthy); ("checks", Arr (List.map check r.checks)) ]))
