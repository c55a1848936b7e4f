(* HTTP-facing views of the registry: Prometheus text exposition 0.0.4,
   the JSON snapshot, the SLO health endpoint and time-series queries.
   This module only renders — it knows nothing about sockets; the
   lib/net listener (or a test) routes requests into [handle]. *)

module Tel = Telemetry

type response = { status : int; content_type : string; body : string }

(* ---- Prometheus text exposition format 0.0.4 ---- *)

(* metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; we map every other byte
   (dots included) to '_' and prefix '_' when the first byte is invalid *)
let sanitize_name name =
  if name = "" then "_"
  else begin
    let ok_first c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':' in
    let ok c = ok_first c || (c >= '0' && c <= '9') in
    let b = Buffer.create (String.length name + 1) in
    if not (ok_first name.[0]) then Buffer.add_char b '_';
    String.iter (fun c -> Buffer.add_char b (if ok c then c else '_')) name;
    Buffer.contents b
  end

(* label names are stricter: no ':' *)
let sanitize_label_name name =
  let s = sanitize_name name in
  String.map (fun c -> if c = ':' then '_' else c) s

(* label values: escape backslash, double quote and newline (the three
   escapes the exposition format defines) *)
let escape_label_value v =
  let b = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" f

let render_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "%s=\"%s\"" (sanitize_label_name k) (escape_label_value v))
           labels)
    ^ "}"

(* extra goes inside the braces alongside the metric's own labels (the
   histogram "le" bound) *)
let render_labels_with labels extra =
  let all = labels @ extra in
  render_labels all

let add_type b name kind seen =
  if not (Hashtbl.mem seen name) then begin
    Hashtbl.replace seen name ();
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
  end

let metrics_text ?(labels = []) (snap : Tel.Snapshot.t) =
  (* [labels] are constant per-process labels (instance, role): they go
     inside the braces ahead of each metric's own labels, so one fleet
     scrape config distinguishes every process. A name collision keeps
     the metric's own label (more specific wins). *)
  let merge own = labels |> List.filter (fun (k, _) -> not (List.mem_assoc k own)) |> fun c -> c @ own in
  let render_labels own = render_labels (merge own) in
  let render_labels_with own extra = render_labels_with (merge own) extra in
  let b = Buffer.create 4096 in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (name, labels, v) ->
      let n = sanitize_name name in
      add_type b n "counter" seen;
      Buffer.add_string b (Printf.sprintf "%s%s %d\n" n (render_labels labels) v))
    snap.Tel.Snapshot.counters;
  List.iter
    (fun (name, labels, v) ->
      let n = sanitize_name name in
      add_type b n "gauge" seen;
      Buffer.add_string b (Printf.sprintf "%s%s %s\n" n (render_labels labels) (prom_float v)))
    snap.Tel.Snapshot.gauges;
  List.iter
    (fun (name, labels, (h : Tel.Histogram.snap)) ->
      let n = sanitize_name name in
      add_type b n "histogram" seen;
      (* cumulative buckets over the shared log-2 layout; only buckets
         that hold observations are emitted (cumulative counts remain
         correct — a skipped bucket adds nothing), plus the mandatory
         +Inf bucket equal to the total count *)
      let cum = ref 0 in
      Array.iteri
        (fun i c ->
          if c > 0 then begin
            cum := !cum + c;
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" n
                 (render_labels_with labels
                    [ ("le", prom_float (Tel.Histogram.bucket_lower (i + 1))) ])
                 !cum)
          end)
        h.Tel.Histogram.buckets;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket%s %d\n" n
           (render_labels_with labels [ ("le", "+Inf") ])
           h.Tel.Histogram.count);
      Buffer.add_string b
        (Printf.sprintf "%s_sum%s %s\n" n (render_labels labels) (prom_float h.Tel.Histogram.sum));
      Buffer.add_string b
        (Printf.sprintf "%s_count%s %d\n" n (render_labels labels) h.Tel.Histogram.count))
    snap.Tel.Snapshot.histograms;
  Buffer.contents b

(* ---- endpoint routing ---- *)

type config = {
  registry : Tel.registry;
  series : Timeseries.t option;
  slo_rules : Slo.rule list;
  runtime : Runtime_stats.t option;
  labels : (string * string) list;
}

let config ?(registry = Tel.default) ?series ?(slo_rules = Slo.default_rules ()) ?runtime
    ?(labels = []) () =
  { registry; series; slo_rules; runtime; labels }

let text_response status body = { status; content_type = "text/plain; charset=utf-8"; body }
let json_response status body = { status; content_type = "application/json"; body }

let prom_content_type = "text/plain; version=0.0.4; charset=utf-8"

let index_body =
  "alpenhorn metrics endpoint\n\
   GET /metrics       Prometheus text exposition format 0.0.4\n\
   GET /metrics.json  telemetry snapshot as JSON\n\
   GET /slo           SLO health report (200 healthy / 503 unhealthy)\n\
   GET /series?name=METRIC[&window=SECONDS]  time-series ring query\n"

let series_response cfg query =
  match cfg.series with
  | None -> text_response 404 "no time-series ring attached\n"
  | Some ring -> (
    match List.assoc_opt "name" query with
    | None | Some "" -> text_response 400 "missing required query parameter: name\n"
    | Some name -> (
      match
        match List.assoc_opt "window" query with
        | None -> Ok None
        | Some w -> (
          match float_of_string_opt w with
          | Some f when f > 0.0 -> Ok (Some f)
          | _ -> Error ())
      with
      | Error () -> text_response 400 "window must be a positive number of seconds\n"
      | Ok window ->
        if not (Timeseries.mem ring name) then
          text_response 404 (Printf.sprintf "unknown series: %s\n" name)
        else begin
          let pts = Timeseries.points ring ?window name in
          let body =
            Tel.Json.(
              to_string
                (Obj
                   [
                     ("name", Str name);
                     ("samples", int (Timeseries.length ring));
                     ("rate_per_s", Num (Timeseries.rate ring ?window name));
                     ("p50", Num (Timeseries.quantile ring ?window name 0.5));
                     ("p99", Num (Timeseries.quantile ring ?window name 0.99));
                     ("points", Arr (List.map (fun (ts, v) -> Arr [ Num ts; Num v ]) pts));
                   ]))
          in
          json_response 200 body
        end))

let handle cfg ~meth ~path ~query () =
  if String.uppercase_ascii meth <> "GET" then text_response 405 "only GET is supported\n"
  else begin
    (* scrapes should carry fresh runtime/GC readings even while the
       orchestrating domain is busy inside a round *)
    (match cfg.runtime with
    | Some rs when path = "/metrics" || path = "/metrics.json" -> Runtime_stats.sample rs
    | _ -> ());
    match path with
    | "/" | "/index" -> text_response 200 index_body
    | "/metrics" ->
      let snap = Tel.Snapshot.take cfg.registry in
      { status = 200; content_type = prom_content_type; body = metrics_text ~labels:cfg.labels snap }
    | "/metrics.json" ->
      let snap = Tel.Snapshot.take cfg.registry in
      let body = Tel.Snapshot.to_json snap in
      (* constant labels ride in a wrapper, never inside the snapshot:
         Snapshot.of_json, which the fleet collector and top decode
         with, unwraps the "telemetry" member *)
      let body =
        if cfg.labels = [] then body
        else
          Printf.sprintf {|{"labels":%s,"telemetry":%s}|}
            (Tel.Json.to_string (Tel.Json.strings cfg.labels))
            body
      in
      json_response 200 body
    | "/slo" ->
      let snap = Tel.Snapshot.take cfg.registry in
      let report = Slo.evaluate cfg.slo_rules snap in
      json_response (if report.Slo.healthy then 200 else 503) (Slo.report_to_json report)
    | "/series" -> series_response cfg query
    | _ -> text_response 404 "not found\n"
  end
