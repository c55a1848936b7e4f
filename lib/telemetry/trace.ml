(* Per-message causal tracing on top of the span registry.

   A trace context is three integers (trace id, span id, parent span id)
   carried strictly OUT OF BAND: contexts live in OCaml values alongside
   messages and are encoded as span labels, never serialized into any wire
   format. In a metadata-private system a trace id on the wire would be a
   linkable tag defeating the mixnet, so the wire-format byte-identity
   property is enforced by test (test_trace.ml) and documented in
   DESIGN.md §9. *)

type ctx = { trace_id : int; span_id : int; parent : int option }

type t = {
  reg : Telemetry.registry;
  rate : float;
  mutable next_trace_id : int;
  mutable next_span_id : int;
  mutable lcg : int;
}

let create ?(rate = 1.0) ?(seed = 0x5eed) reg =
  if Float.is_nan rate || rate < 0.0 || rate > 1.0 then invalid_arg "Trace.create: rate";
  { reg; rate; next_trace_id = 1; next_span_id = 1; lcg = seed land 0x3fffffff }

let registry t = t.reg

(* Deterministic 31-bit LCG (Lehmer-style constants): sampling decisions
   must not consume protocol randomness, or enabling tracing would change
   the wire bytes of a seeded run. *)
let next_uniform t =
  t.lcg <- ((t.lcg * 1103515245) + 12345) land 0x3fffffff;
  float_of_int t.lcg /. float_of_int 0x40000000

let fresh_span t =
  let id = t.next_span_id in
  t.next_span_id <- id + 1;
  id

let sample t =
  if t.rate > 0.0 && next_uniform t < t.rate then begin
    let trace_id = t.next_trace_id in
    t.next_trace_id <- trace_id + 1;
    Some { trace_id; span_id = fresh_span t; parent = None }
  end
  else None

let child t ctx = { trace_id = ctx.trace_id; span_id = fresh_span t; parent = Some ctx.span_id }

(* ---- label encoding (how contexts ride on ordinary spans) ---- *)

let labels_of ctx =
  let base =
    [ ("trace", string_of_int ctx.trace_id); ("span", string_of_int ctx.span_id) ]
  in
  match ctx.parent with
  | None -> base
  | Some p -> ("parent", string_of_int p) :: base

let ctx_of_labels labels =
  match (List.assoc_opt "trace" labels, List.assoc_opt "span" labels) with
  | Some tr, Some sp -> begin
    match (int_of_string_opt tr, int_of_string_opt sp) with
    | Some trace_id, Some span_id ->
      let parent = Option.bind (List.assoc_opt "parent" labels) int_of_string_opt in
      Some { trace_id; span_id; parent }
    | _ -> None
  end
  | _ -> None

let emit t ctx ?(labels = []) ~name ~ts ~dur () =
  Telemetry.Span.emit t.reg ~labels:(labels_of ctx @ labels) ~depth:1 ~name ~ts ~dur ()

let with_ t ctx ?(labels = []) name f =
  Telemetry.Span.with_ t.reg ~labels:(labels_of ctx @ labels) name f

(* ---- snapshot side: stitching and the timeline summary ---- *)

let spans_of (snap : Telemetry.Snapshot.t) =
  List.filter_map
    (fun (sp : Telemetry.Snapshot.span) ->
      Option.map (fun ctx -> (ctx, sp)) (ctx_of_labels sp.labels))
    snap.spans

let traces snap =
  let tagged = spans_of snap in
  let ids = List.sort_uniq compare (List.map (fun (c, _) -> c.trace_id) tagged) in
  List.map
    (fun id ->
      let spans = List.filter (fun (c, _) -> c.trace_id = id) tagged in
      let spans =
        List.stable_sort
          (fun (_, (a : Telemetry.Snapshot.span)) (_, b) -> compare a.ts b.ts)
          spans
      in
      (id, spans))
    ids

let pp_timelines fmt snap =
  let plain_labels (sp : Telemetry.Snapshot.span) =
    List.filter (fun (k, _) -> k <> "trace" && k <> "span" && k <> "parent") sp.labels
  in
  List.iter
    (fun (id, spans) ->
      Format.fprintf fmt "trace %d (%d spans):@\n" id (List.length spans);
      List.iter
        (fun ((c : ctx), (sp : Telemetry.Snapshot.span)) ->
          let parent = match c.parent with None -> "root" | Some p -> Printf.sprintf "<-%d" p in
          Format.fprintf fmt "  %12.6f +%10.6f  [%d %s] %s (%s)@\n" sp.ts sp.dur c.span_id
            parent (Telemetry.metric_key sp.name (plain_labels sp)) sp.clock)
        spans)
    (traces snap)
