(* CI endpoint smoke: serve the telemetry endpoints on an ephemeral port
   while a real deployment loops rounds on another domain, scrape
   /metrics, /metrics.json and /slo with the in-repo fetch client (no
   curl), and assert status + parseability. Then run the CLI's live
   `top --port P --frames 2 --no-color` against the listener while
   rounds keep completing, and check its last frame: the slo row reads
   HEALTHY and the rounds row shows a nonzero rate. Run via
   `dune build @endpoint-smoke` (which passes the CLI's path and also
   replays a recorded ring through `top --replay`); CI runs it at
   ALPENHORN_DOMAINS=1 and =4.

   Usage: endpoint_smoke.exe ALPENHORN_CLI
   Exit codes: 0 all endpoints healthy, 1 assertion failed, 2 usage. *)

module Tel = Alpenhorn_telemetry.Telemetry
module Expose = Alpenhorn_telemetry.Expose
module Timeseries = Alpenhorn_telemetry.Timeseries
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

(* The CLI's `top` as an operator runs it, polling [port] until it has
   rendered two frames; [between] runs meanwhile so the counters move.
   Returns top's exit status and everything it printed. *)
let run_top ~cli ~port ~between =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process cli
      [| cli; "top"; "--port"; string_of_int port; "--frames"; "2"; "--no-color" |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  (* two frames are a few KiB, well under a pipe's buffer: top never
     blocks on its output before it exits *)
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      between ();
      wait ()
    | _, status -> status
  in
  let status = wait () in
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  (status, out)

(* the first two words of the frame row whose first word is [label] *)
let row frame label =
  String.split_on_char '\n' frame
  |> List.find_map (fun l ->
         match List.filter (( <> ) "") (String.split_on_char ' ' l) with
         | w :: v :: _ when w = label -> Some v
         | _ -> None)

let () =
  let cli =
    match Sys.argv with
    | [| _; cli |] -> cli
    | _ ->
      prerr_endline "usage: endpoint_smoke.exe ALPENHORN_CLI";
      exit 2
  in
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
  let i = ref 3 in
  let status, out =
    run_top ~cli ~port ~between:(fun () ->
        incr i;
        round_pair !i)
  in
  check "top exits 0" (status = Unix.WEXITED 0);
  (* each frame follows the screen-clear sequence, ESC[2J ESC[H *)
  let frames =
    String.split_on_char '\x1b' out
    |> List.filter_map (fun p ->
           if String.starts_with ~prefix:"[H" p then Some (String.sub p 2 (String.length p - 2))
           else None)
  in
  let frame = match List.rev frames with last :: _ -> last | [] -> "" in
  print_string frame;
  check "top rendered two frames" (List.length frames >= 2);
  check "top's slo row reads HEALTHY" (row frame "slo" = Some "HEALTHY");
  (* the row reads "  rounds  <rate>/s  <sparkline>" *)
  check "top's rounds row shows a nonzero rate"
    (match row frame "rounds" with
    | Some rate -> String.exists (fun c -> c >= '1' && c <= '9') rate
    | None -> false);
  Listener.stop t;
  Domain.join server;
  if !failed then exit 1;
  Printf.printf "endpoint smoke: all checks passed on port %d\n%!" port
