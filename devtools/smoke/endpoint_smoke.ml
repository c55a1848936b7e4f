(* CI endpoint smoke: serve the telemetry endpoints on an ephemeral port
   while a real deployment loops rounds on another domain, scrape
   /metrics, /metrics.json and /slo with the in-repo fetch client (no
   curl), and assert status + parseability. Then take `top`'s live path:
   scrape the listener twice through a one-instance Collector with a
   round in between, and render a Dashboard frame from the collector's
   ring. Run via `dune build @endpoint-smoke` (which also replays a
   recorded ring through `top --replay`); CI runs it at
   ALPENHORN_DOMAINS=1 and =4.

   Exit codes: 0 all endpoints healthy, 1 assertion failed. *)

module Tel = Alpenhorn_telemetry.Telemetry
module Expose = Alpenhorn_telemetry.Expose
module Timeseries = Alpenhorn_telemetry.Timeseries
module Collector = Alpenhorn_telemetry.Collector
module Dashboard = Alpenhorn_telemetry.Dashboard
module Runtime_stats = Alpenhorn_telemetry.Runtime_stats
module Listener = Alpenhorn_net.Listener
module Deployment = Alpenhorn_core.Deployment
module Client = Alpenhorn_core.Client
module Config = Alpenhorn_core.Config

let failed = ref false

let check name cond =
  if cond then Printf.printf "ok   %s\n%!" name
  else begin
    failed := true;
    Printf.printf "FAIL %s\n%!" name
  end

let fetch_ok ~port path =
  match Listener.fetch ~port path with
  | Ok (status, body) -> (status, body)
  | Error e ->
    failed := true;
    Printf.printf "FAIL fetch %s: %s\n%!" path e;
    (0, "")

let () =
  let cfg =
    Expose.config ~series:Timeseries.default ~runtime:(Runtime_stats.get_default ()) ()
  in
  let handler (req : Listener.request) =
    let r = Expose.handle cfg ~meth:req.meth ~path:req.path ~query:req.query () in
    { Listener.status = r.Expose.status; content_type = r.Expose.content_type; body = r.Expose.body }
  in
  let t = Listener.create ~port:0 handler in
  let port = Listener.port t in
  let server = Domain.spawn (fun () -> Listener.run t) in
  (* a short but real run: rounds complete while the scrapes happen *)
  let d = Deployment.create ~config:Config.test ~seed:"endpoint-smoke" in
  let mk email = Deployment.new_client d ~email ~callbacks:Client.null_callbacks in
  let a = mk "alice@example.org" and b = mk "bob@example.org" in
  List.iter
    (fun c ->
      match Deployment.register d c with
      | Ok () -> ()
      | Error e -> failwith (Alpenhorn_pkg.Pkg.error_to_string e))
    [ a; b ];
  Client.add_friend a ~email:"bob@example.org" ();
  let round_pair i =
    ignore (Deployment.run_addfriend_round d ());
    ignore (Deployment.run_dialing_round d ());
    Client.call a ~email:"bob@example.org" ~intent:(i mod 4)
  in
  for i = 1 to 3 do
    round_pair i
  done;
  let status, body = fetch_ok ~port "/metrics" in
  check "/metrics answers 200" (status = 200);
  check "/metrics has TYPE comments"
    (let rec has i =
       i + 6 <= String.length body && (String.sub body i 6 = "# TYPE" || has (i + 1))
     in
     has 0);
  check "/metrics shows completed rounds"
    (let rec has i =
       i + 15 <= String.length body
       && (String.sub body i 15 = "round_completed" || has (i + 1))
     in
     has 0);
  let status, body = fetch_ok ~port "/metrics.json" in
  check "/metrics.json answers 200" (status = 200);
  check "/metrics.json is valid JSON" (Tel.Json.is_valid body);
  let status, body = fetch_ok ~port "/slo" in
  check "/slo answers 200 (healthy) or 503 (unhealthy), body JSON either way"
    ((status = 200 || status = 503) && Tel.Json.is_valid body);
  check "/slo is healthy after a clean run" (status = 200);
  let status, body = fetch_ok ~port "/series?name=round.completed" in
  check "/series answers 200 with JSON" (status = 200 && Tel.Json.is_valid body);
  (* top's live mode: the endpoint as a fleet of one *)
  let coll =
    Collector.create
      ~fetch:(fun ~host ~port path -> Listener.fetch ~host ~port path)
      [ Collector.instance ~name:"endpoint" (Collector.Remote { host = "127.0.0.1"; port }) ]
  in
  Collector.scrape coll;
  round_pair 4;
  Collector.scrape coll;
  check "both collector scrapes decode"
    (match Collector.status coll with [ (_, Collector.Fresh, _) ] -> true | _ -> false);
  let frame = Dashboard.render ~color:false ~ring:(Collector.ring coll) ~slo:None () in
  print_string frame;
  (* the row reads "  rounds  <rate>/s  <sparkline>" *)
  let shown_rate =
    String.split_on_char '\n' frame
    |> List.find_map (fun l ->
           match List.filter (( <> ) "") (String.split_on_char ' ' l) with
           | "rounds" :: rate :: _ -> Some rate
           | _ -> None)
  in
  check "the dashboard's rounds row shows a nonzero rate"
    (match shown_rate with
    | Some rate -> String.exists (fun c -> c >= '1' && c <= '9') rate
    | None -> false);
  Listener.stop t;
  Domain.join server;
  if !failed then exit 1;
  Printf.printf "endpoint smoke: all checks passed on port %d\n%!" port
