module Tel = Alpenhorn_telemetry.Telemetry
module Json = Tel.Json

type row = {
  series : string;
  before_v : float;
  after_v : float option;  (* None: series disappeared from the new snapshot *)
  pct : float;
  regressed : bool;
  carried : bool;  (* matched a --carry prefix: reported, never regresses *)
}

(* A telemetry snapshot document, bare or nested under "telemetry" (the
   [--metrics-json --calibrate] wrapper), decodes through the snapshot's
   one decoder and is keyed by section and [Telemetry.metric_key], so a
   series never depends on array position; an empty histogram has no
   min or max. The wrapper's other members, and any other JSON document
   (e.g. BENCH_*.json), flatten through [Json.number_leaves]. *)
let flatten doc =
  match Tel.Snapshot.of_json doc with
  | Error _ -> Json.number_leaves doc
  | Ok snap ->
    let key section name labels = section ^ "." ^ Tel.metric_key name labels in
    let histogram (name, labels, (h : Tel.Histogram.snap)) =
      let k = key "histograms" name labels in
      [ (k ^ ".count", float_of_int h.count); (k ^ ".sum", h.sum) ]
      @ if h.count = 0 then [] else [ (k ^ ".min", h.min_v); (k ^ ".max", h.max_v) ]
    in
    let wrapper =
      match doc with
      | Json.Obj kvs when List.mem_assoc "telemetry" kvs ->
        Json.number_leaves (Json.Obj (List.remove_assoc "telemetry" kvs))
      | _ -> []
    in
    wrapper
    @ List.map (fun (n, l, v) -> (key "counters" n l, float_of_int v)) snap.Tel.Snapshot.counters
    @ List.map (fun (n, l, v) -> (key "gauges" n l, v)) snap.Tel.Snapshot.gauges
    @ List.concat_map histogram snap.Tel.Snapshot.histograms

let keep filters series =
  filters = []
  || List.exists
       (fun f ->
         let lf = String.length f in
         String.length series >= lf && String.sub series 0 lf = f)
       filters

(* like [keep] but an empty filter list matches nothing *)
let keep_any filters series = filters <> [] && keep filters series

(* Lower is better: a regression is [after] exceeding [before] by more
   than [threshold_pct] percent. A vanished series is reported but never
   regresses; a series new in [after] is ignored (no baseline). Series
   matching a [carry] prefix are ignored-but-carried: shown with their
   percent change for trend visibility, never regressed — runtime/GC
   numbers ride the BENCH files without arming the gate. *)
let diff ~threshold_pct ?(series = []) ?(carry = []) ~before ~after () =
  let after_leaves = flatten after in
  flatten before
  |> List.filter (fun (k, _) -> keep series k || keep_any carry k)
  |> List.map (fun (k, before_v) ->
         let carried = keep_any carry k in
         match List.assoc_opt k after_leaves with
         | None ->
           { series = k; before_v; after_v = None; pct = 0.0; regressed = false; carried }
         | Some after_v ->
           let pct =
             if before_v = 0.0 then if after_v = 0.0 then 0.0 else infinity
             else (after_v -. before_v) /. before_v *. 100.0
           in
           {
             series = k;
             before_v;
             after_v = Some after_v;
             pct;
             regressed = (not carried) && pct > threshold_pct;
             carried;
           })

let regressions rows = List.filter (fun r -> r.regressed) rows

let pp ppf rows =
  List.iter
    (fun r ->
      match r.after_v with
      | None -> Format.fprintf ppf "gone %-48s %12g -> (missing)@." r.series r.before_v
      | Some a ->
        Format.fprintf ppf "%s %-48s %12g -> %-12g %+.1f%%@."
          (if r.regressed then "FAIL" else if r.carried then "info" else "ok  ")
          r.series r.before_v a r.pct)
    rows
