(* Orchestrator-side fleet scraper (DESIGN.md §14): poll every process of
   a multi-process deployment over its /metrics.json endpoint, merge the
   per-process snapshots into one fleet snapshot under instance labels,
   keep fleet history in a Timeseries ring, and evaluate fleet-wide SLO
   rules over the merged view.

   Dependency direction: lib/net depends on this library, so the
   collector cannot call Listener.fetch itself — the HTTP GET is injected
   as a [fetch] function (the CLI passes Listener.fetch; tests pass a
   synthetic one serving canned documents). An instance can also be
   [Local] (a registry in this process): the orchestrator itself is a
   fleet member without a port.

   Staleness semantics: a failed scrape never erases an instance's last
   good snapshot — its metrics freeze in the merged view while the
   synthetic [fleet.instance_up{instance=...}] gauge drops to 0 and
   [fleet.staleness_seconds{instance=...}] climbs, so one Gauge_min /
   Gauge rule pair turns "a process died" into an SLO breach without any
   new engine. The fetch error's class prefix ("refused" = process dead,
   "timeout" = hung) is preserved in the status for operators. *)

module Tel = Telemetry

type fetch = host:string -> port:int -> string -> (int * string, string) result

type target = Remote of { host : string; port : int } | Local of Tel.registry

type instance = { name : string; role : string; mutable target : target }

let instance ?(role = "") ~name target =
  let role =
    if role <> "" then role
    else match String.index_opt name '-' with Some i -> String.sub name 0 i | None -> name
  in
  { name; role; target }

type status = Fresh | Stale of string | Never of string

type state = {
  inst : instance;
  mutable last_snap : Tel.Snapshot.t option;
  mutable last_ok : float; (* clock reading of the last successful scrape *)
  mutable status : status;
}

type t = {
  fetch : fetch;
  clock : unit -> float;
  states : state list;
  ring : Timeseries.t;
  mutable merged : Tel.Snapshot.t;
  mutable scrapes : int;
}

let empty_snapshot =
  {
    Tel.Snapshot.clock = "wall";
    counters = [];
    gauges = [];
    histograms = [];
    spans = [];
    dropped_spans = 0;
  }

let create ?(capacity = 720) ?(clock = Tel.wall_clock) ~fetch instances =
  let now = clock () in
  if instances = [] then invalid_arg "Collector.create: no instances";
  let names = List.map (fun i -> i.name) instances in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Collector.create: duplicate instance names";
  {
    fetch;
    clock;
    states =
      List.map
        (fun inst -> { inst; last_snap = None; last_ok = now; status = Never "not scraped yet" })
        instances;
    ring = Timeseries.create_detached ~capacity ();
    merged = empty_snapshot;
    scrapes = 0;
  }

let instances t = List.map (fun s -> s.inst) t.states

let set_target t ~name target =
  match List.find_opt (fun s -> s.inst.name = name) t.states with
  | None -> invalid_arg ("Collector.set_target: unknown instance " ^ name)
  | Some s -> s.inst.target <- target

(* ---- merging under instance labels ---- *)

(* sorted, like every label set a registry hands out: an exact key
   selects a merged metric the way it selects a local one *)
let with_instance ~name ~role own =
  let constant =
    [ ("instance", name) ] @ (if role = "" then [] else [ ("role", role) ])
  in
  List.sort compare (List.filter (fun (k, _) -> not (List.mem_assoc k own)) constant @ own)

let merge_snapshots parts =
  let map f = List.concat_map (fun (name, role, (s : Tel.Snapshot.t)) -> f name role s) parts in
  let metrics of_snap =
    map (fun n r s -> List.map (fun (m, l, v) -> (m, with_instance ~name:n ~role:r l, v)) (of_snap s))
    |> List.sort (fun (a, al, _) (b, bl, _) -> compare (a, al) (b, bl))
  in
  {
    Tel.Snapshot.clock = "wall";
    counters = metrics (fun s -> s.counters);
    gauges = metrics (fun s -> s.gauges);
    histograms = metrics (fun s -> s.histograms);
    spans =
      map (fun n r s ->
          List.map
            (fun (sp : Tel.Snapshot.span) ->
              { sp with labels = with_instance ~name:n ~role:r sp.labels })
            s.spans);
    dropped_spans = List.fold_left (fun acc (_, _, s) -> acc + s.Tel.Snapshot.dropped_spans) 0 parts;
  }

(* ---- one scrape of the whole fleet ---- *)

let scrape_instance t s =
  let result =
    match s.inst.target with
    | Local reg -> Ok (Tel.Snapshot.take reg)
    | Remote { host; port } -> (
      match t.fetch ~host ~port "/metrics.json" with
      | Error e -> Error e
      | Ok (status, _) when status <> 200 -> Error (Printf.sprintf "http %d" status)
      | Ok (_, body) -> (
        match Tel.Json.parse body with
        | None -> Error "unparseable /metrics.json body"
        | Some j -> Tel.Snapshot.of_json j))
  in
  match result with
  | Ok snap ->
    s.last_snap <- Some snap;
    s.last_ok <- t.clock ();
    s.status <- Fresh
  | Error e -> s.status <- (if s.last_snap = None then Never e else Stale e)

let scrape t =
  List.iter (scrape_instance t) t.states;
  let now = t.clock () in
  let parts =
    List.filter_map
      (fun s -> Option.map (fun snap -> (s.inst.name, s.inst.role, snap)) s.last_snap)
      t.states
  in
  let merged = merge_snapshots parts in
  (* synthetic per-instance liveness gauges: the SLO hooks for staleness *)
  let health =
    List.concat_map
      (fun s ->
        let labels = with_instance ~name:s.inst.name ~role:s.inst.role [] in
        [
          ("fleet.instance_up", labels, if s.status = Fresh then 1.0 else 0.0);
          ("fleet.staleness_seconds", labels, Float.max 0.0 (now -. s.last_ok));
        ])
      t.states
  in
  let merged = { merged with Tel.Snapshot.gauges = merged.Tel.Snapshot.gauges @ health } in
  t.merged <- merged;
  t.scrapes <- t.scrapes + 1;
  (* the ring indexes by timestamp; wall clocks can step backwards (NTP),
     and record_snapshot rejects that — clamp forward instead *)
  let ts =
    match Timeseries.last_ts t.ring with
    | Some last when now <= last -> last +. 1e-6
    | _ -> now
  in
  Timeseries.record_snapshot t.ring ~ts merged

let merged t = t.merged
let ring t = t.ring
let scrapes t = t.scrapes

let status t =
  List.map
    (fun s -> (s.inst.name, s.status, Float.max 0.0 (t.clock () -. s.last_ok)))
    t.states

(* ---- fleet SLO rules over the merged snapshot ---- *)

let fleet_rules ?(max_staleness = infinity) () =
  [
    (* fleet-wide sum over every instance and tag: any server-side handler
       failure or corrupt frame anywhere in the fleet breaches *)
    Slo.rule ~name:"fleet.zero_rpc_errors"
      ~description:"no RPC handler failures or corrupt frames on any instance"
      (Slo.Counter "rpc.errors") Slo.Le 0.0;
    (* Gauge_min = the worst instance: one dead process breaches *)
    Slo.rule ~name:"fleet.instances_up" ~description:"every instance answered its last scrape"
      (Slo.Gauge_min "fleet.instance_up") Slo.Ge 1.0;
    (* Gauge = the stalest instance *)
    Slo.rule ~name:"fleet.staleness_seconds"
      ~description:"seconds since the stalest instance last answered a scrape"
      (Slo.Gauge "fleet.staleness_seconds") Slo.Le max_staleness;
  ]

let evaluate t rules = Slo.evaluate rules t.merged

(* ---- cross-process trace stitching ---- *)

let traces t = Trace.traces t.merged

let trace_instances spans =
  List.sort_uniq compare
    (List.filter_map
       (fun ((_ : Trace.ctx), (sp : Tel.Snapshot.span)) -> List.assoc_opt "instance" sp.labels)
       spans)

let cross_process_traces ?(min_instances = 2) t =
  List.filter (fun (_, spans) -> List.length (trace_instances spans) >= min_instances) (traces t)

(* ---- per-process dashboard rows ---- *)

type row = {
  row_name : string;
  row_role : string;
  row_up : bool;
  row_status : string; (* "up", or the failure-class-prefixed fetch error *)
  row_staleness : float;
  row_rpc_calls : int;
  row_rpc_errors : int;
  row_rpc_p99 : float; (* seconds; 0 when no requests were observed *)
  row_spans : int;
  row_heap_words : float; (* 0 when the instance samples no runtime stats *)
}

let rows t =
  let now = t.clock () in
  List.map
    (fun s ->
      let snap = match s.last_snap with Some sn -> sn | None -> empty_snapshot in
      {
        row_name = s.inst.name;
        row_role = s.inst.role;
        row_up = s.status = Fresh;
        row_status =
          (match s.status with Fresh -> "up" | Stale e -> e | Never e -> e);
        row_staleness = Float.max 0.0 (now -. s.last_ok);
        row_rpc_calls = Tel.Snapshot.counter_sum snap "rpc.calls";
        row_rpc_errors = Tel.Snapshot.counter_sum snap "rpc.errors";
        row_rpc_p99 =
          (match Tel.Snapshot.histogram snap "rpc.request_seconds" with
          | Some lat -> Tel.Histogram.quantile lat 0.99
          | None -> 0.0);
        row_spans = List.length snap.Tel.Snapshot.spans;
        row_heap_words = List.fold_left Float.max 0.0 (Tel.Snapshot.gauges snap "runtime.heap_words");
      })
    t.states
