(* Telemetry smoke target (wired into `dune runtest` from bench/dune).

   Runs one tiny instrumented round twice — once for real on the wall
   clock (in-process deployment, test curve) and once replayed on the DES
   simulated clock — then validates that every exporter emits well-formed
   JSON and that the per-hop mixnet counters are nonzero for every server
   in both snapshots, and that the real round's pairings ran on the
   Montgomery kernel and its scans on the trace-zero batches. Exits
   nonzero on any failure, so `dune runtest` catches exporter
   regressions. *)

module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Costmodel = Alpenhorn_sim.Costmodel
module Round_sim = Alpenhorn_sim.Round_sim
module Tel = Alpenhorn_telemetry.Telemetry
module Events = Alpenhorn_telemetry.Events

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: FAIL " ^ s); exit 1) fmt

let check_json what s =
  if not (Tel.Json.is_valid s) then fail "%s is not well-formed JSON (%d bytes)" what (String.length s);
  Printf.printf "smoke: %-28s valid JSON, %d bytes\n" what (String.length s)

(* every hop must have seen onions and timed its unwraps *)
let check_hops what (snap : Tel.Snapshot.t) ~n_servers =
  for i = 0 to n_servers - 1 do
    let labels = [ ("server", string_of_int i) ] in
    List.iter
      (fun name ->
        match Tel.Snapshot.counter snap (Tel.metric_key name labels) with
        | Some v when v > 0 -> ()
        | _ -> fail "%s: counter %s{server=%d} missing or zero" what name i)
      [ "mix.onions_in"; "mix.onions_out"; "mix.noise_generated" ];
    let timed =
      match Tel.Snapshot.histogram snap (Tel.metric_key "mix.unwrap_seconds" labels) with
      | Some h -> h.count > 0
      | None -> false
    in
    if not timed then fail "%s: histogram mix.unwrap_seconds{server=%d} missing or empty" what i
  done;
  Printf.printf "smoke: %-28s per-hop counters nonzero for %d servers\n" what n_servers

let smoke () =
  Bench_util.header "Smoke: one instrumented round, exporters validated";
  let n_servers = Config.test.Config.chain_length in
  (* --- real round, wall clock --- *)
  ignore (Tel.Snapshot.take ~reset:true Tel.default);
  let d = Deployment.create ~config:Config.test ~seed:"bench-smoke" in
  let clients =
    List.init 3 (fun i ->
        Deployment.new_client d
          ~email:(Printf.sprintf "s%d@smoke" i)
          ~callbacks:Client.null_callbacks)
  in
  List.iter
    (fun c -> match Deployment.register d c with Ok () -> () | Error _ -> fail "registration")
    clients;
  Client.add_friend (List.hd clients) ~email:"s1@smoke" ();
  Events.clear Events.default;
  ignore (Deployment.run_addfriend_round d ());
  ignore (Deployment.run_dialing_round d ());
  let wall = Tel.Snapshot.take ~reset:true Tel.default in
  if wall.clock <> "wall" then fail "real round snapshot clock = %S, expected wall" wall.clock;
  if Tel.Snapshot.counter_sum wall "pkg.extractions" = 0 then fail "no PKG extractions recorded";
  (* the round's IBE/BLS work must have gone through the Montgomery kernel *)
  if Tel.Snapshot.counter_sum wall "pairing.mont_mul" = 0 then
    fail "no Montgomery multiplications recorded — pairing fast path not in use";
  (* and the scan's trial decryptions through the trace-zero batches *)
  if Tel.Snapshot.counter_sum wall "pairing.prepared_evals" = 0 then
    fail "no trace-zero prepared pairing batch recorded — the scan's fast path not in use";
  check_hops "wall snapshot" wall ~n_servers;
  check_json "wall to_json" (Tel.Snapshot.to_json wall);
  check_json "wall to_chrome_trace" (Tel.Snapshot.to_chrome_trace wall);
  (* the structured event log must have narrated the rounds, every line
     independently well-formed JSON *)
  let ev_lines = String.split_on_char '\n' (String.trim (Events.to_jsonl Events.default)) in
  if List.length ev_lines < 4 then
    fail "event log too small: %d lines (expected round.start/close pairs)"
      (List.length ev_lines);
  List.iteri
    (fun i l -> if not (Tel.Json.is_valid l) then fail "event line %d is not well-formed JSON: %s" i l)
    ev_lines;
  Printf.printf "smoke: %-28s %d JSONL events validated\n" "event log" (List.length ev_lines);
  (* --- same round shape replayed on the DES clock --- *)
  let m = Costmodel.paper_machine in
  let pc = Costmodel.protocol_costs (Alpenhorn_pairing.Params.production ()) in
  ignore
    (Round_sim.addfriend m pc ~n_users:2_000 ~n_servers ~noise_mu:10.0 ~active_fraction:0.05
       ~chunks:2);
  ignore
    (Round_sim.dialing m pc ~n_users:2_000 ~n_servers ~noise_mu:10.0 ~active_fraction:0.05
       ~friends:10 ~intents:4 ~chunks:2);
  let sim = Tel.Snapshot.take ~reset:true Tel.default in
  check_hops "sim snapshot" sim ~n_servers;
  if Tel.Snapshot.span_count sim "round.addfriend" = 0 then fail "sim round.addfriend span missing";
  if not (List.exists (fun (sp : Tel.Snapshot.span) -> sp.clock = "sim") sim.spans) then
    fail "no simulated-clock spans in the DES snapshot";
  check_json "sim to_json" (Tel.Snapshot.to_json sim);
  check_json "sim to_chrome_trace" (Tel.Snapshot.to_chrome_trace sim);
  check_json "machine+telemetry"
    (Printf.sprintf "{\"machine\":%s,\"telemetry\":%s}" (Costmodel.machine_to_json m)
       (Tel.Snapshot.to_json sim));
  (* the sim replay must emit the same metric names as the real round *)
  let names (s : Tel.Snapshot.t) =
    List.sort_uniq compare (List.map (fun (n, _, _) -> n) s.counters)
  in
  List.iter
    (fun n ->
      if String.length n >= 4 && String.sub n 0 4 = "mix." && not (List.mem n (names wall)) then
        fail "sim-only mixnet counter %s absent from the real round" n)
    (names sim);
  Format.printf "%a@?" Tel.Snapshot.pp_table sim;
  print_endline "smoke: OK"
