(* Standalone Alpenhorn client CLI (paper §8.5).

   The paper's Pond integration is a command-line client that lets users
   friend and call each other and prints the resulting shared secret,
   ready to paste into PANDA. This binary provides that flow against an
   in-process deployment (session), and the tools around it: params,
   simulate, scale, e2e-net, serve-pkg, serve-mixer, serve-metrics and
   top, each described by its --help. *)

module B = Alpenhorn_bigint.Bigint
module Params = Alpenhorn_pairing.Params
module Field = Alpenhorn_pairing.Field
module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Costmodel = Alpenhorn_sim.Costmodel
module Round_sim = Alpenhorn_sim.Round_sim
module Scale = Alpenhorn_sim.Scale
module Faults = Alpenhorn_core.Faults
module Util = Alpenhorn_crypto.Util
module Tel = Alpenhorn_telemetry.Telemetry
module Trace = Alpenhorn_telemetry.Trace
module Events = Alpenhorn_telemetry.Events
module Slo = Alpenhorn_telemetry.Slo
module Expose = Alpenhorn_telemetry.Expose
module Timeseries = Alpenhorn_telemetry.Timeseries
module Runtime_stats = Alpenhorn_telemetry.Runtime_stats
module Dashboard = Alpenhorn_telemetry.Dashboard
module Collector = Alpenhorn_telemetry.Collector
module Listener = Alpenhorn_net.Listener
module Rpc = Alpenhorn_net.Rpc
module Servers = Alpenhorn_remote.Servers
module Fleet = Alpenhorn_remote.Fleet
module Parallel = Alpenhorn_parallel.Parallel

open Cmdliner

(* ---- telemetry output (shared by session and simulate) ---- *)

let write_file path body =
  try
    let oc = open_out path in
    output_string oc body;
    close_out oc
  with Sys_error e ->
    Printf.eprintf "alpenhorn: cannot write telemetry output: %s\n" e;
    exit 1

(* Dump the default registry: table on stderr with [--metrics], JSON
   snapshot with [--metrics-json FILE] (wrapping the machine calibration
   when one was used), Chrome trace_event JSON with [--trace FILE],
   JSON-lines event log with [--events FILE], SLO health report with
   [--slo]. Returns false when an SLO report came out unhealthy. *)
let dump_telemetry ~metrics ~json_path ~trace_path ?machine ?tracer ~events_path ~slo_rules () =
  let healthy = ref true in
  if metrics || json_path <> None || trace_path <> None || slo_rules <> None then begin
    let snap = Tel.Snapshot.take Tel.default in
    if metrics then begin
      Format.eprintf "%a@?" Tel.Snapshot.pp_table snap;
      (* per-message causal timelines, when tracing was on *)
      if tracer <> None then Format.eprintf "%a@?" Trace.pp_timelines snap
    end;
    Option.iter
      (fun path ->
        let telemetry_json = Tel.Snapshot.to_json snap in
        let body =
          match machine with
          | Some m ->
            Printf.sprintf "{\"machine\":%s,\"telemetry\":%s}" (Costmodel.machine_to_json m)
              telemetry_json
          | None -> telemetry_json
        in
        write_file path body;
        Printf.eprintf "telemetry snapshot written to %s\n" path)
      json_path;
    Option.iter
      (fun path ->
        write_file path (Tel.Snapshot.to_chrome_trace snap);
        Printf.eprintf "chrome trace written to %s (open in about:tracing)\n" path)
      trace_path;
    Option.iter
      (fun rules ->
        let report = Slo.evaluate rules snap in
        Format.printf "%a@?" Slo.pp_report report;
        healthy := report.Slo.healthy)
      slo_rules
  end;
  Option.iter
    (fun path ->
      write_file path (Events.to_jsonl Events.default);
      Printf.eprintf "event log written to %s (%d events, %d dropped)\n" path
        (Events.length Events.default) (Events.dropped Events.default))
    events_path;
  !healthy

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ] ~doc:"Print a telemetry metrics table on stderr.")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE" ~doc:"Write the telemetry JSON snapshot to $(docv).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event file to $(docv) (view in about:tracing).")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:"Write the structured event log to $(docv) as JSON-lines.")

let slo_arg =
  Arg.(
    value & flag
    & info [ "slo" ]
        ~doc:
          "Evaluate the built-in SLO rules (round deadlines, fault recovery, zero drops, \
           DES quiescence, scale budgets) against the run and print a health report; exit 2 \
           when unhealthy.")

let trace_sample_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "trace-sample" ] ~docv:"RATE"
        ~doc:
          "Enable per-message causal tracing, sampling $(docv) of real submissions \
           (0.0-1.0). Trace contexts ride out-of-band: wire bytes are unchanged.")

let domains_arg =
  Arg.(
    value & opt int 0
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Size of the data-parallel domain pool used for batch onion unwrap, PKG \
           extraction and mailbox scans. 1 runs fully sequentially; 0 (the default) \
           reads the ALPENHORN_DOMAINS environment variable (itself defaulting to 1). \
           Every pool size produces byte-identical protocol output.")

let apply_domains domains =
  if domains < 0 then begin
    prerr_endline "alpenhorn: --domains must be >= 0";
    exit 2
  end;
  if domains > 0 then Parallel.set_default_size domains

(* ---- live metrics endpoint (shared by session, simulate and the
   standalone serve-metrics command) ---- *)

let expose_handler ?(labels = []) () =
  let cfg =
    Expose.config ~series:Timeseries.default ~runtime:(Runtime_stats.get_default ()) ~labels ()
  in
  fun (req : Listener.request) ->
    let r = Expose.handle cfg ~meth:req.meth ~path:req.path ~query:req.query () in
    { Listener.status = r.Expose.status; content_type = r.Expose.content_type; body = r.Expose.body }

(* Start the listener on its own domain so scrapes are served while the
   orchestrating domain is busy inside a round. *)
let start_metrics_server = function
  | None -> None
  | Some port ->
    let l =
      try Listener.create ~port (expose_handler ())
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "alpenhorn: cannot bind metrics port %d: %s\n" port (Unix.error_message e);
        exit 2
    in
    Printf.eprintf "serving metrics on http://127.0.0.1:%d/metrics (also /metrics.json /slo /series)\n%!"
      (Listener.port l);
    let d = Domain.spawn (fun () -> Listener.run l) in
    Some (l, d)

let stop_metrics_server ~hold = function
  | None -> ()
  | Some (l, d) ->
    if hold > 0.0 then begin
      Printf.eprintf "holding metrics endpoint open for %g s (Ctrl-C to abort)\n%!" hold;
      Unix.sleepf hold
    end;
    Listener.stop l;
    Domain.join d

let serve_metrics_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "serve-metrics" ] ~docv:"PORT"
        ~doc:
          "Serve live telemetry over HTTP on 127.0.0.1:$(docv) for the duration of the run \
           (0 picks an ephemeral port, printed on stderr). Endpoints: /metrics (Prometheus \
           text format 0.0.4), /metrics.json, /slo (200/503), /series?name=METRIC.")

let serve_hold_arg =
  Arg.(
    value & opt float 0.0
    & info [ "serve-hold" ] ~docv:"SECONDS"
        ~doc:"Keep the --serve-metrics endpoint up for $(docv) seconds after the run finishes.")

let make_tracer trace_sample =
  Option.map
    (fun rate ->
      if rate < 0.0 || rate > 1.0 then begin
        prerr_endline "alpenhorn: --trace-sample must be in [0, 1]";
        exit 2
      end;
      Trace.create ~rate Tel.default)
    trace_sample

(* ---- session ---- *)

let run_session caller callee intent seed metrics metrics_json trace events slo trace_sample
    domains serve_port serve_hold =
  apply_domains domains;
  let server = start_metrics_server serve_port in
  let tracer = make_tracer trace_sample in
  let d = Deployment.create ~config:Config.test ~seed in
  Deployment.set_tracer d tracer;
  let secret_caller = ref None and secret_callee = ref None in
  let mk email on_place on_ring =
    Deployment.new_client d ~email
      ~callbacks:
        {
          Client.null_callbacks with
          Client.new_friend =
            (fun ~email ~key:_ ->
              Printf.printf "[%s] friend request from %s -> accepted\n" callee email;
              true);
          Client.call_placed =
            (fun ~email:_ ~intent:_ ~session_key -> if on_place then secret_caller := Some session_key);
          Client.incoming_call =
            (fun ~email ~intent ~session_key ->
              if on_ring then begin
                Printf.printf "[%s] incoming call from %s (intent %d)\n" callee email intent;
                secret_callee := Some session_key
              end);
        }
  in
  let a = mk caller true false and b = mk callee false true in
  List.iter
    (fun c ->
      match Deployment.register d c with
      | Ok () -> Printf.printf "registered %s\n" (Client.email c)
      | Error e -> failwith (Alpenhorn_pkg.Pkg.error_to_string e))
    [ a; b ];
  Printf.printf "\n> /addfriend %s\n" callee;
  Client.add_friend a ~email:callee ();
  ignore (Deployment.run_addfriend_round d ());
  ignore (Deployment.run_addfriend_round d ());
  Printf.printf "friendship established (keywheels synchronized)\n";
  Printf.printf "\n> /call %s %d\n" callee intent;
  Client.call a ~email:callee ~intent;
  let guard = ref 0 in
  while !secret_callee = None && !guard < 6 do
    incr guard;
    ignore (Deployment.run_dialing_round d ())
  done;
  let slo_rules =
    if slo then
      (* in-process rounds are function calls: generous wall-clock bounds *)
      Some (Slo.default_rules ~addfriend_deadline:300.0 ~dialing_deadline:300.0 ())
    else None
  in
  let healthy =
    dump_telemetry ~metrics ~json_path:metrics_json ~trace_path:trace ?tracer
      ~events_path:events ~slo_rules ()
  in
  stop_metrics_server ~hold:serve_hold server;
  match (!secret_caller, !secret_callee) with
  | Some ka, Some kb when ka = kb ->
    Printf.printf "\nshared secret (paste into PANDA or your messenger):\n  %s\n" (Util.to_hex ka);
    if healthy then 0 else 2
  | _ ->
    prerr_endline "call failed";
    1

let session_cmd =
  let caller =
    Arg.(value & opt string "alice@example.org" & info [ "caller" ] ~doc:"Caller email address.")
  in
  let callee =
    Arg.(value & opt string "bob@example.org" & info [ "callee" ] ~doc:"Callee email address.")
  in
  let intent = Arg.(value & opt int 0 & info [ "intent" ] ~doc:"Application intent (0-3).") in
  let seed = Arg.(value & opt string "cli" & info [ "seed" ] ~doc:"Deterministic seed.") in
  Cmd.v
    (Cmd.info "session" ~doc:"Friend two users and place a call; print the shared secret.")
    Term.(
      const run_session $ caller $ callee $ intent $ seed $ metrics_arg $ metrics_json_arg
      $ trace_arg $ events_arg $ slo_arg $ trace_sample_arg $ domains_arg $ serve_metrics_arg
      $ serve_hold_arg)

(* ---- params ---- *)

let run_params name =
  let pr = Params.of_named name in
  let p = Field.modulus pr.Params.fp in
  Printf.printf "parameter set: %s\n" name;
  Printf.printf "field prime p: %d bits (%s...)\n" (B.numbits p)
    (String.sub (B.to_hex p) 0 16);
  Printf.printf "group order q: %d bits\n" (B.numbits pr.Params.q);
  Printf.printf "cofactor 12l:  %s\n" (B.to_string pr.Params.cofactor);
  Printf.printf "G1 point size: %d bytes compressed\n"
    (Alpenhorn_pairing.Curve.point_bytes pr.Params.fp);
  Printf.printf "curve: y^2 = x^3 + 1 over F_p (supersingular, Boneh-Franklin setting)\n";
  Params.validate pr;
  Printf.printf "validation: OK\n";
  0

let params_cmd =
  let set_arg =
    Arg.(value & pos 0 string "production" & info [] ~docv:"SET" ~doc:"\"test\" or \"production\".")
  in
  Cmd.v (Cmd.info "params" ~doc:"Inspect and validate a pairing parameter set.")
    Term.(const run_params $ set_arg)

(* ---- simulate ---- *)

(* a --faults spec (DESIGN.md §10 grammar), or exit 2 *)
let parse_faults spec =
  match Faults.parse spec with
  | Ok t -> t
  | Error e ->
    Printf.eprintf "alpenhorn: bad --faults spec: %s\n" e;
    exit 2

let run_simulate users servers dial_minutes af_hours calibrate metrics metrics_json trace events
    slo trace_sample faults_spec fault_seed domains serve_port serve_hold record =
  apply_domains domains;
  let server = start_metrics_server serve_port in
  let tracer = make_tracer trace_sample in
  let faults =
    match (faults_spec, fault_seed) with
    | Some _, Some _ ->
      prerr_endline "alpenhorn: --faults and --fault-seed are mutually exclusive";
      exit 2
    | Some spec, None -> parse_faults spec
    | None, Some seed -> Faults.generate ~seed ~rounds:1 ~n_servers:servers ()
    | None, None -> Faults.empty
  in
  let have_faults = not (Faults.is_empty faults) in
  if have_faults then
    Printf.eprintf "fault schedule (seed %s): %s\n" (Faults.seed faults) (Faults.to_string faults);
  let pr = Params.production () in
  let pc = Costmodel.protocol_costs pr in
  let m =
    if calibrate then begin
      (* measure this host's pure-OCaml primitives on the test curve (the
         production curve would take minutes); the record is dumped with the
         snapshot so the calibration is not lost. The domain pool calibrates
         the cores field from its measured batch-unwrap speedup. *)
      let m = Costmodel.measure_local ~pool:(Parallel.get ()) (Params.test ()) in
      Format.eprintf "%a@." Costmodel.pp_machine m;
      m
    end
    else Costmodel.paper_machine
  in
  let af =
    Costmodel.addfriend_round m pc ~n_users:users ~n_servers:servers ~noise_mu:4000.0
      ~active_fraction:0.05 ()
  in
  let dial =
    Costmodel.dialing_round m pc ~n_users:users ~n_servers:servers ~noise_mu:25000.0
      ~active_fraction:0.05 ~friends:1000 ~intents:10 ()
  in
  let af_bw =
    Costmodel.addfriend_bandwidth pc ~n_users:users ~n_servers:servers ~noise_mu:4000.0
      ~active_fraction:0.05 ~round_seconds:(af_hours *. 3600.0)
  in
  let dial_bw =
    Costmodel.dialing_bandwidth pc ~n_users:users ~n_servers:servers ~noise_mu:25000.0
      ~active_fraction:0.05 ~round_seconds:(dial_minutes *. 60.0)
  in
  Printf.printf "deployment: %d users, %d mixnet servers (paper-calibrated hardware)\n" users servers;
  Printf.printf "add-friend round latency: %.1f s (mailbox %.2f MB)\n" af.Costmodel.total_seconds
    (float_of_int af.Costmodel.mailbox_bytes /. 1e6);
  Printf.printf "dialing round latency:    %.1f s (filter %.2f MB)\n" dial.Costmodel.total_seconds
    (float_of_int dial.Costmodel.mailbox_bytes /. 1e6);
  Printf.printf "client bandwidth: %.2f KB/s add-friend @%.1fh + %.2f KB/s dialing @%.0fmin\n"
    (af_bw /. 1000.0) af_hours (dial_bw /. 1000.0) dial_minutes;
  Printf.printf "total: %.2f KB/s (%.1f GB/month)\n"
    ((af_bw +. dial_bw) /. 1000.0)
    ((af_bw +. dial_bw) *. 86400.0 *. 30.0 /. 1e9);
  if
    metrics || metrics_json <> None || trace <> None || events <> None || slo || tracer <> None
    || have_faults || record <> None
  then begin
    (* replay one add-friend + one dialing round on the DES engine so the
       snapshot and trace carry per-hop counters and simulated-clock spans;
       a fault schedule turns each replay into an abort/backoff/retry loop
       on the same simulated clock (DESIGN.md §10) *)
    ignore (Tel.Snapshot.take ~reset:true Tel.default);
    let af_tl =
      Round_sim.addfriend m ?tracer ~faults pc ~n_users:users ~n_servers:servers ~noise_mu:4000.0
        ~active_fraction:0.05 ~chunks:1
    in
    let dial_tl =
      Round_sim.dialing m ?tracer ~faults pc ~n_users:users ~n_servers:servers ~noise_mu:25000.0
        ~active_fraction:0.05 ~friends:1000 ~intents:10 ~chunks:1
    in
    if have_faults then
      List.iter
        (fun (phase, (tl : Round_sim.timeline)) ->
          if tl.Round_sim.completed then
            Printf.printf "%s round under faults: completed after %d attempt%s (publish at %.1f s)\n"
              phase tl.Round_sim.attempts
              (if tl.Round_sim.attempts = 1 then "" else "s")
              tl.Round_sim.publish
          else
            Printf.printf "%s round under faults: FAILED after %d attempts\n" phase
              tl.Round_sim.attempts)
        [ ("add-friend", af_tl); ("dialing", dial_tl) ];
    let slo_rules =
      if slo then
        let policy = Faults.default_policy in
        Some
          (Slo.default_rules
             ~addfriend_deadline:(af_hours *. 3600.0)
             ~dialing_deadline:(dial_minutes *. 60.0)
             (* fault bounds only bind when the schedule actually injected
                faults; a fully-failed round (streak = max_attempts) trips
                the streak rule *)
             ~max_consecutive_aborts:(float_of_int (policy.Faults.max_attempts - 1))
             ~recovery_ceiling:(Stdlib.max (af_hours *. 3600.0) (dial_minutes *. 60.0))
             ())
      else None
    in
    let healthy =
      dump_telemetry ~metrics ~json_path:metrics_json ~trace_path:trace ~machine:m ?tracer
        ~events_path:events ~slo_rules ()
    in
    Option.iter
      (fun path ->
        write_file path (Alpenhorn_telemetry.Timeseries.to_jsonl Timeseries.default);
        Printf.eprintf "time-series ring written to %s (%d samples, DES clock)\n%!" path
          (Timeseries.length Timeseries.default))
      record;
    if not healthy then begin
      stop_metrics_server ~hold:serve_hold server;
      exit 2
    end
  end;
  stop_metrics_server ~hold:serve_hold server;
  0

let simulate_cmd =
  let users = Arg.(value & opt int 1_000_000 & info [ "users" ] ~doc:"Online users.") in
  let servers = Arg.(value & opt int 3 & info [ "servers" ] ~doc:"Mixnet chain length.") in
  let dial_minutes =
    Arg.(value & opt float 5.0 & info [ "dial-minutes" ] ~doc:"Dialing round duration (minutes).")
  in
  let af_hours =
    Arg.(value & opt float 4.0 & info [ "addfriend-hours" ] ~doc:"Add-friend round duration (hours).")
  in
  let calibrate =
    Arg.(
      value & flag
      & info [ "calibrate" ]
          ~doc:"Measure this host's primitives (test curve) instead of the paper-calibrated \
                constants; the calibration record is included in the JSON snapshot.")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Inject a deterministic fault schedule into the round replay. $(docv) is a \
             semicolon-separated list of kind@round:key=value,... entries, e.g. \
             \"crash@1:server=1;stall@1:server=0,seconds=45\". Kinds: crash, stall, latency, \
             loss, offline. Mutually exclusive with --fault-seed.")
  in
  let fault_seed =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:
            "Generate a random fault schedule from $(docv) (same seed, same schedule, same \
             failure trace, forever). Mutually exclusive with --faults.")
  in
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:"Write the DES-clock time-series ring of the replayed rounds to $(docv) as \
                JSON-lines (replayable with $(b,top --replay)). Implies the round replay.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Price a deployment with the paper-calibrated cost model.")
    Term.(
      const run_simulate $ users $ servers $ dial_minutes $ af_hours $ calibrate $ metrics_arg
      $ metrics_json_arg $ trace_arg $ events_arg $ slo_arg $ trace_sample_arg $ faults
      $ fault_seed $ domains_arg $ serve_metrics_arg $ serve_hold_arg $ record)

(* ---- scale: one sharded million-user round, gated by the scale SLOs ---- *)

let run_scale users shards noise_per_mailbox scan_sample download_budget metrics metrics_json
    events slo domains =
  apply_domains domains;
  if users < 1 then begin
    prerr_endline "alpenhorn: --users must be >= 1";
    exit 2
  end;
  ignore (Tel.Snapshot.take ~reset:true Tel.default);
  let r = Scale.run ?shards ?noise_per_mailbox ~scan_sample ~clients:users () in
  Format.printf "%a@?" Scale.pp r;
  let breach = ref false in
  if not (Scale.within_budget r) then begin
    Printf.printf "FAIL: peak heap %d words exceeds the %d-word budget\n" r.Scale.peak_words
      (Scale.budget_words ~clients:users);
    breach := true
  end;
  if r.Scale.scan_hits <> r.Scale.scan_dialed then begin
    Printf.printf "FAIL: %d of %d dialed clients missed their token\n"
      (r.Scale.scan_dialed - r.Scale.scan_hits)
      r.Scale.scan_dialed;
    breach := true
  end;
  let slo_rules =
    if slo then
      Some
        (Slo.default_rules
           ~scale_bytes_per_client_ceiling:(float_of_int download_budget)
           ~scale_words_per_client_ceiling:
             (float_of_int (Scale.budget_words ~clients:users) /. float_of_int users)
           ())
    else None
  in
  let healthy =
    dump_telemetry ~metrics ~json_path:metrics_json ~trace_path:None ~events_path:events
      ~slo_rules ()
  in
  if !breach || not healthy then exit 2;
  0

let scale_cmd =
  let users =
    Arg.(value & opt int 1_000_000 & info [ "users" ] ~doc:"Clients in the round.")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"S"
          ~doc:"Contiguous mailbox-range shards (default: one per ~64k clients).")
  in
  let noise =
    Arg.(
      value
      & opt (some int) None
      & info [ "noise-per-mailbox" ] ~docv:"N"
          ~doc:"Noise tokens per mailbox (default: the paper's 25000 x 3 servers).")
  in
  let scan_sample =
    Arg.(
      value & opt int 4096
      & info [ "scan-sample" ] ~docv:"N" ~doc:"Scanning clients sampled over the population.")
  in
  let download_budget =
    Arg.(
      value & opt int 1_048_576
      & info [ "download-budget" ] ~docv:"BYTES"
          ~doc:"With --slo: ceiling for the scale.bytes_per_client gauge (a client's shard \
                download).")
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Run one sharded synthetic dialing round at up to millions of clients (DESIGN.md \
          §15) and assert its memory and download budgets; exits 2 on a breach.")
    Term.(
      const run_scale $ users $ shards $ noise $ scan_sample $ download_budget $ metrics_arg
      $ metrics_json_arg $ events_arg $ slo_arg $ domains_arg)

(* ---- serve-metrics: a live in-process deployment behind the endpoint ---- *)

let run_serve_metrics port rounds period seed record domains =
  apply_domains domains;
  let server = start_metrics_server (Some port) in
  (* a small real deployment looping rounds so the ring keeps filling:
     every scrape of /metrics sees live counters moving *)
  let d = Deployment.create ~config:Config.test ~seed in
  let mk email = Deployment.new_client d ~email ~callbacks:Client.null_callbacks in
  let a = mk "alice@example.org" and b = mk "bob@example.org" in
  List.iter
    (fun c ->
      match Deployment.register d c with
      | Ok () -> ()
      | Error e -> failwith (Alpenhorn_pkg.Pkg.error_to_string e))
    [ a; b ];
  Client.add_friend a ~email:"bob@example.org" ();
  let stop = ref false in
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  let i = ref 0 in
  while (not !stop) && (rounds = 0 || !i < rounds) do
    incr i;
    ignore (Deployment.run_addfriend_round d ());
    ignore (Deployment.run_dialing_round d ());
    Client.call a ~email:"bob@example.org" ~intent:(!i mod 4);
    if period > 0.0 then Unix.sleepf period
  done;
  Printf.eprintf "ran %d round pairs\n%!" !i;
  Option.iter
    (fun path ->
      write_file path (Timeseries.to_jsonl Timeseries.default);
      Printf.eprintf "time-series ring written to %s (%d samples)\n%!" path
        (Timeseries.length Timeseries.default))
    record;
  stop_metrics_server ~hold:0.0 server;
  0

let serve_metrics_cmd =
  let port =
    Arg.(value & opt int 9598 & info [ "port" ] ~docv:"PORT" ~doc:"Listen port (0 = ephemeral).")
  in
  let rounds =
    Arg.(
      value & opt int 0
      & info [ "rounds" ] ~docv:"N" ~doc:"Stop after $(docv) round pairs (0 = until Ctrl-C).")
  in
  let period =
    Arg.(
      value & opt float 1.0
      & info [ "period" ] ~docv:"SECONDS" ~doc:"Pause between round pairs (default 1).")
  in
  let seed = Arg.(value & opt string "serve" & info [ "seed" ] ~doc:"Deterministic seed.") in
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:"On exit, write the time-series ring to $(docv) as JSON-lines (replayable with \
                $(b,top --replay)).")
  in
  Cmd.v
    (Cmd.info "serve-metrics"
       ~doc:
         "Run a continuous in-process deployment and serve its live telemetry over HTTP \
          (/metrics, /metrics.json, /slo, /series).")
    Term.(const run_serve_metrics $ port $ rounds $ period $ seed $ record $ domains_arg)

(* ---- top: live dashboard over the ring ---- *)

(* Fleet table: one row per process from the collector's last snapshots. *)
let print_fleet_rows coll =
  Printf.printf "%-14s %-7s %-30s %9s %6s %9s %7s %9s\n" "INSTANCE" "ROLE" "STATUS" "RPC" "ERR"
    "P99" "SPANS" "HEAP";
  List.iter
    (fun (r : Collector.row) ->
      let status =
        if r.Collector.row_up then "up"
        else begin
          let s = Printf.sprintf "DOWN %.0fs: %s" r.Collector.row_staleness r.Collector.row_status in
          if String.length s > 30 then String.sub s 0 30 else s
        end
      in
      Printf.printf "%-14s %-7s %-30s %9s %6d %9s %7d %9s\n" r.Collector.row_name
        r.Collector.row_role status
        (Dashboard.fmt_si (float_of_int r.Collector.row_rpc_calls))
        r.Collector.row_rpc_errors
        (Dashboard.fmt_seconds r.Collector.row_rpc_p99)
        r.Collector.row_spans
        (Dashboard.fmt_si r.Collector.row_heap_words))
    (Collector.rows coll)

(* "--fleet pkg-0=7001,mixer-1=otherhost:7002": comma-separated
   [name=][host:]port scrape targets. *)
let parse_fleet_targets spec =
  let parse_item i item =
    let name, addr =
      match String.index_opt item '=' with
      | Some eq -> (String.sub item 0 eq, String.sub item (eq + 1) (String.length item - eq - 1))
      | None -> (Printf.sprintf "instance-%d" i, item)
    in
    let host, port_s =
      match String.rindex_opt addr ':' with
      | Some c -> (String.sub addr 0 c, String.sub addr (c + 1) (String.length addr - c - 1))
      | None -> ("127.0.0.1", addr)
    in
    match int_of_string_opt port_s with
    | Some port when port > 0 && name <> "" && host <> "" ->
      Collector.instance ~name (Collector.Remote { host; port })
    | _ ->
      Printf.eprintf "alpenhorn: bad --fleet target %S (want [name=][host:]port)\n" item;
      exit 2
  in
  match List.filter (fun s -> s <> "") (String.split_on_char ',' spec) with
  | [] ->
    prerr_endline "alpenhorn: --fleet needs at least one [name=][host:]port target";
    exit 2
  | items -> List.mapi parse_item items

let http_collector targets =
  Collector.create ~fetch:(fun ~host ~port path -> Listener.fetch ~host ~port path) targets

(* top reads /metrics.json only through a collector: a single endpoint
   is a fleet of one. Every frame scrapes it once and judges the merged
   snapshot by the rules /slo serves (the default rules) or, with
   --fleet, by the fleet rules. *)
let run_top port host interval frames window replay no_color fleet =
  let color = not no_color in
  match replay with
  | Some path when fleet = "" ->
    (* offline: render the recorded ring in one frame *)
    let body =
      try In_channel.with_open_bin path In_channel.input_all
      with Sys_error e ->
        Printf.eprintf "alpenhorn: cannot read %s: %s\n" path e;
        exit 2
    in
    (match Timeseries.of_jsonl body with
    | Error e ->
      Printf.eprintf "alpenhorn: %s: %s\n" path e;
      2
    | Ok ring ->
      let window = if window > 0.0 then window else Float.max 60.0 (Timeseries.span_seconds ring) in
      print_string (Dashboard.render ~color ~window ~ring ~slo:None ());
      0)
  | _ ->
    let single = fleet = "" in
    let targets, rules =
      if single then
        ([ Collector.instance ~name:"endpoint" (Collector.Remote { host; port }) ], Slo.default_rules ())
      else
        ( parse_fleet_targets fleet,
          Collector.fleet_rules ~max_staleness:(Float.max 10.0 (interval *. 5.0)) () )
    in
    let coll = http_collector targets in
    let window = if window > 0.0 then window else 60.0 in
    let stop = ref false in
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
    let i = ref 0 and failures = ref 0 in
    (* one endpoint gives up after 5 failed scrapes in a row; a fleet
       keeps polling and shows its dead instances as rows *)
    while (not !stop) && (frames = 0 || !i < frames) && !failures < 5 do
      incr i;
      Collector.scrape coll;
      (match Collector.status coll with
      | [ (_, (Collector.Stale e | Collector.Never e), _) ] when single ->
        incr failures;
        Printf.eprintf "fetch http://%s:%d/metrics.json: %s\n%!" host port e
      | _ ->
        failures := 0;
        let report = Collector.evaluate coll rules in
        print_string Dashboard.ansi_clear;
        if single then
          print_string
            (Dashboard.render ~color ~window ~ring:(Collector.ring coll) ~slo:(Some report) ())
        else begin
          print_fleet_rows coll;
          Format.printf "%a@?" Slo.pp_report report
        end;
        flush stdout);
      if (frames = 0 || !i < frames) && not !stop then Unix.sleepf interval
    done;
    if !failures >= 5 then begin
      Printf.eprintf "alpenhorn: giving up after %d consecutive fetch failures\n" !failures;
      1
    end
    else 0

let top_cmd =
  let port =
    Arg.(
      value & opt int 9598
      & info [ "port" ] ~docv:"PORT" ~doc:"Metrics endpoint port to poll (see serve-metrics).")
  in
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Endpoint host.") in
  let interval =
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECONDS" ~doc:"Poll interval.")
  in
  let frames =
    Arg.(
      value & opt int 0
      & info [ "frames" ] ~docv:"N" ~doc:"Render $(docv) frames then exit (0 = until Ctrl-C).")
  in
  let window =
    Arg.(
      value & opt float 0.0
      & info [ "window" ] ~docv:"SECONDS"
          ~doc:"Query window for rates/quantiles/sparklines (0 = 60 s live, full span on replay).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Render offline from a recorded JSON-lines ring (serve-metrics --record) instead \
                of polling.")
  in
  let no_color = Arg.(value & flag & info [ "no-color" ] ~doc:"Disable ANSI colors.") in
  let fleet =
    Arg.(
      value & opt string ""
      & info [ "fleet" ] ~docv:"TARGETS"
          ~doc:
            "Fleet mode: poll several processes instead of one. $(docv) is a comma-separated \
             list of [name=][host:]port metrics endpoints (e.g. \
             \"pkg-0=9001,mixer-0=9002,mixer-1=9003\"); each frame scrapes all of them and \
             renders one row per process plus the fleet SLO report.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live ANSI dashboard over a metrics endpoint: rounds/s, unwraps/s, GC pause and heap \
          sparklines, SLO status. Also renders offline from a recorded ring, and fleet mode \
          ($(b,--fleet)) shows one row per process.")
    Term.(const run_top $ port $ host $ interval $ frames $ window $ replay $ no_color $ fleet)

(* ---- networked deployment: serve-pkg / serve-mixer / e2e-net ---- *)

(* The servers a real deployment runs as separate processes (DESIGN.md
   §13): each wraps its protocol logic (lib/remote) behind the framed RPC
   loop and prints "READY port=N" once bound, so a parent that spawned it
   with --port 0 can read the ephemeral port back. *)

let ready_line ?metrics port =
  match metrics with
  | Some m -> Printf.printf "READY port=%d metrics=%d\n%!" port m
  | None -> Printf.printf "READY port=%d\n%!" port

(* Serve the RPC loop, optionally with a telemetry endpoint on its own
   domain. [instance]/[role] become constant labels on every exported
   sample, so one fleet scrape distinguishes every process. The metrics
   port is echoed in the READY handshake (metrics=M) for the parent. *)
let run_rpc_server ~instance ~role ~handler ~metrics_port port =
  let server =
    try Rpc.Server.create_traced ~port handler
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "alpenhorn: cannot bind port %d: %s\n" port (Unix.error_message e);
      exit 2
  in
  match metrics_port with
  | None ->
    ready_line (Rpc.Server.port server);
    Rpc.Server.run server;
    0
  | Some mport ->
    let l =
      try
        Listener.create ~port:mport
          (expose_handler ~labels:[ ("instance", instance); ("role", role) ] ())
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "alpenhorn: cannot bind metrics port %d: %s\n" mport (Unix.error_message e);
        exit 2
    in
    let d = Domain.spawn (fun () -> Listener.run l) in
    ready_line ~metrics:(Listener.port l) (Rpc.Server.port server);
    Rpc.Server.run server;
    Listener.stop l;
    Domain.join d;
    0

let seed_arg = Arg.(value & opt string "e2e" & info [ "seed" ] ~doc:"Deterministic deployment seed.")

let port_arg =
  Arg.(
    value & opt int 0
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Listen port; 0 (the default) picks an ephemeral port, printed as READY port=N.")

let metrics_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Also serve the telemetry endpoints (/metrics, /metrics.json, /slo, /series) on \
           127.0.0.1:$(docv) with this process's instance/role as constant labels. 0 picks \
           an ephemeral port; the bound port is echoed in the READY line as metrics=M.")

let run_serve_pkg seed port index metrics_port =
  run_rpc_server
    ~instance:(Printf.sprintf "pkg-%d" index)
    ~role:"pkg"
    ~handler:
      (Servers.Pkg_server.handler_traced (Servers.Pkg_server.create ~config:Config.test ~seed ~index))
    ~metrics_port port

let serve_pkg_cmd =
  let index =
    Arg.(
      value & opt int 0
      & info [ "index" ] ~docv:"I"
          ~doc:"PKG index: selects the pkg-$(docv) DRBG derivation from the deployment seed.")
  in
  Cmd.v
    (Cmd.info "serve-pkg"
       ~doc:
         "Run one PKG as a framed-RPC server process (registration, commit/reveal key \
          rotation, identity-key extraction).")
    Term.(const run_serve_pkg $ seed_arg $ port_arg $ index $ metrics_port_arg)

let run_serve_mixer seed port position metrics_port =
  run_rpc_server
    ~instance:(Printf.sprintf "mixer-%d" position)
    ~role:"mixer"
    ~handler:
      (Servers.Mixer_server.handler_traced
         (Servers.Mixer_server.create ~config:Config.test ~seed ~position))
    ~metrics_port port

let serve_mixer_cmd =
  let position =
    Arg.(
      value & opt int 0
      & info [ "position" ] ~docv:"I"
          ~doc:
            "Chain position: this process serves position $(docv) of both the add-friend \
             and the dialing mixnet chains.")
  in
  Cmd.v
    (Cmd.info "serve-mixer"
       ~doc:
         "Run one mixnet chain position as a framed-RPC server process (round key \
          announcement, unwrap/noise/shuffle).")
    Term.(const run_serve_mixer $ seed_arg $ port_arg $ position $ metrics_port_arg)

(* -- e2e-net: multi-process deployment driver -- *)

(* --scrape, after the rounds: scrape every process, then the three fleet
   checks — a killed mixer goes stale on the next scrape and recovers
   after its respawn, a trace stitches spans of >= 3 processes, and the
   fleet SLO report is healthy. *)
let fleet_checks fleet =
  let remote (s : Fleet.server) = Collector.Remote { host = "127.0.0.1"; port = Option.get s.metrics } in
  let coll =
    http_collector
      (Collector.instance ~role:"orch" ~name:"orchestrator" (Collector.Local Tel.default)
      :: List.map (fun s -> Collector.instance ~name:s.Fleet.name (remote s)) (Fleet.servers fleet))
  in
  (* a respawned mixer comes back on fresh ports *)
  let scrape () =
    List.iter (fun s -> Collector.set_target coll ~name:s.Fleet.name (remote s)) (Fleet.servers fleet);
    Collector.scrape coll
  in
  let ok = ref true in
  let fail msg =
    prerr_endline ("fleet: FAIL — " ^ msg);
    ok := false
  in
  let mixer_0 () =
    List.find_map (fun (n, st, _) -> if n = "mixer-0" then Some st else None) (Collector.status coll)
  in
  Printf.printf "scraping %d fleet instances\n%!" (List.length (Collector.instances coll));
  scrape ();
  Fleet.kill_mixer fleet 0;
  scrape ();
  (match mixer_0 () with
  | Some (Collector.Stale reason) -> Printf.printf "fleet: mixer-0 went stale after kill (%s)\n%!" reason
  | _ -> fail "killed mixer-0 did not go stale on the next scrape");
  Fleet.restart_mixer fleet 0;
  scrape ();
  (match mixer_0 () with
  | Some Collector.Fresh -> Printf.printf "fleet: mixer-0 recovered after respawn\n%!"
  | _ -> fail "respawned mixer-0 did not recover on the next scrape");
  print_fleet_rows coll;
  let crossing = Collector.cross_process_traces ~min_instances:3 coll in
  Printf.printf "fleet: %d traces stitched, %d crossing >= 3 processes\n"
    (List.length (Collector.traces coll))
    (List.length crossing);
  (match crossing with
  | (id, spans) :: _ ->
    Printf.printf "  e.g. trace %d: %d spans across %s\n" id (List.length spans)
      (String.concat ", " (Collector.trace_instances spans))
  | [] -> fail "no trace crosses >= 3 processes");
  let report = Collector.evaluate coll (Collector.fleet_rules ~max_staleness:300.0 ()) in
  Format.printf "%a@?" Slo.pp_report report;
  if not report.Slo.healthy then fail "fleet SLO report unhealthy";
  !ok

(* Every round's whole stats record, and the faults.* telemetry each run
   raised, must be identical over TCP and in process. *)
let verdict ~rounds ((net_rounds, net_faults) as net) ((ref_rounds, ref_faults) as in_process) =
  let delivered = function
    | Fleet.Af s -> s.Deployment.events <> []
    | Fleet.Dial s -> s.Deployment.calls <> []
  in
  if not (List.exists delivered net_rounds) then begin
    prerr_endline "e2e-net: FAIL — no protocol events were delivered";
    false
  end
  else if net = in_process then begin
    Printf.printf
      "e2e-net: PASS — %d add-friend + %d dialing rounds over TCP; every round's stats, events \
       and session keys, and the faults.* telemetry, identical to the in-process deployment\n"
      rounds rounds;
    true
  end
  else begin
    prerr_endline "e2e-net: FAIL — networked and in-process results diverge:";
    List.iter2
      (fun n r ->
        if n <> r then
          Printf.eprintf "  net: %s\n  ref: %s\n" (Fleet.round_to_string n) (Fleet.round_to_string r))
      net_rounds ref_rounds;
    let faults ds = String.concat ", " (List.map (fun (k, d) -> Printf.sprintf "%s +%d" k d) ds) in
    Printf.eprintf "  net faults: %s\n  ref faults: %s\n" (faults net_faults) (faults ref_faults);
    false
  end

let run_e2e_net seed rounds faults_spec scrape domains =
  apply_domains domains;
  if rounds < 2 then begin
    prerr_endline "alpenhorn: e2e-net needs --rounds >= 2 (request round + confirmation round)";
    exit 2
  end;
  let faults = match faults_spec with "" | "none" -> Faults.empty | spec -> parse_faults spec in
  let config = { Config.test with Config.n_pkgs = 1 } in
  Fleet.processes ~exe:Sys.executable_name ~metrics:scrape ~faults ~config ~seed
  @@ fun fleet ->
  Printf.printf "spawned %d mixer + %d PKG server processes (ports %s)\n%!"
    config.Config.chain_length config.Config.n_pkgs
    (String.concat ", " (List.map (fun s -> string_of_int s.Fleet.port) (Fleet.servers fleet)));
  if not (Faults.is_empty faults) then Printf.printf "fault schedule: %s\n%!" (Faults.to_string faults);
  (* trace every round: all span ids are minted by this tracer, and
     servers replay carried identities, so merged snapshots stitch *)
  if scrape then Deployment.set_tracer (Fleet.deployment fleet) (Some (Trace.create Tel.default));
  let net, in_process = Fleet.check fleet (Fleet.scenario ~rounds) in
  List.iter (fun r -> Printf.printf "over TCP: %s\n%!" (Fleet.round_to_string r)) (fst net);
  let fleet_ok = (not scrape) || fleet_checks fleet in
  if verdict ~rounds net in_process && fleet_ok then 0 else 1

let e2e_net_cmd =
  let rounds =
    Arg.(
      value & opt int 2
      & info [ "rounds" ] ~docv:"N"
          ~doc:"Add-friend and dialing rounds to run (>= 2; the second add-friend round \
                carries the confirmations).")
  in
  let faults =
    Arg.(
      value
      & opt string "crash@2:server=1"
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Fault schedule (DESIGN.md §10 grammar): crash entries SIGKILL the mixer \
             process mid-round and recovery respawns it. \"none\" disables faults.")
  in
  let scrape =
    Arg.(
      value & flag
      & info [ "scrape" ]
          ~doc:
            "Give every server process a metrics endpoint (--metrics-port 0), trace every \
             round, scrape the whole fleet with the orchestrator-side collector once the \
             rounds are done, and run the three fleet checks: a mixer is killed, shown stale \
             on the next scrape, then respawned and shown recovered; at least one stitched \
             trace must cross three or more OS processes; and the fleet-wide SLO rules (zero \
             rpc.errors, every instance up, staleness and latency ceilings) must report \
             healthy. Exit 1 when a check fails.")
  in
  Cmd.v
    (Cmd.info "e2e-net"
       ~doc:
         "Spawn a 3-mixer + 1-PKG anytrust deployment as separate OS processes, run \
          add-friend and dialing rounds over localhost TCP (killing and respawning a \
          mixer mid-round under the fault schedule), and verify that every round's stats, \
          events and session keys, and the faults.* telemetry, match the in-process \
          deployment.")
    Term.(const run_e2e_net $ seed_arg $ rounds $ faults $ scrape $ domains_arg)

let () =
  let doc = "Alpenhorn: metadata-private bootstrapping (OCaml reproduction)" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "alpenhorn" ~doc)
          [
            session_cmd;
            params_cmd;
            simulate_cmd;
            scale_cmd;
            serve_metrics_cmd;
            top_cmd;
            serve_pkg_cmd;
            serve_mixer_cmd;
            e2e_net_cmd;
          ]))
