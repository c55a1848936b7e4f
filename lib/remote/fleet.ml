(* A localhost fleet for Net_deployment, as child processes or as RPC
   servers on domains; the scripted scenario e2e-net runs over it; and the
   check, which replays a scenario in process under the same config, seed
   and fault schedule and measures the [faults.*] telemetry each run raised
   (DESIGN.md §13). *)

module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Faults = Alpenhorn_core.Faults
module Rpc = Alpenhorn_net.Rpc
module Tel = Alpenhorn_telemetry.Telemetry

type server = { name : string; port : int; metrics : int option }

(* A started server and how to stop it. *)
type running = { server : server; stop : unit -> unit }

type t = {
  config : Config.t;
  seed : string;
  faults : Faults.t;
  pkgs : running array;
  mixers : running array; (* replaced on restart *)
  restart : int -> unit;
  nd : Deployment.t;
}

let endpoint r = { Net_deployment.host = "127.0.0.1"; port = r.server.port }

(* One server per PKG and chain position, and the deployment over them.
   Every server ever started, respawns included, is stopped at the end;
   a stop runs at most once. *)
let launch ~start ?(faults = Faults.empty) ~config ~seed f =
  let started = ref [] in
  let start role i =
    let r = start role (Printf.sprintf "%s-%d" role i) i in
    let stopped = ref false in
    let stop () =
      if not !stopped then begin
        stopped := true;
        r.stop ()
      end
    in
    started := stop :: !started;
    { r with stop }
  in
  Fun.protect ~finally:(fun () -> List.iter (fun stop -> stop ()) !started) @@ fun () ->
  let pkgs = Array.init config.Config.n_pkgs (start "pkg") in
  let mixers = Array.init config.Config.chain_length (start "mixer") in
  let restart i =
    mixers.(i).stop ();
    mixers.(i) <- start "mixer" i
  in
  let mixer i r =
    {
      Net_deployment.ep = endpoint r;
      kill = (fun () -> mixers.(i).stop ());
      restart =
        (fun () ->
          restart i;
          endpoint mixers.(i));
    }
  in
  let nd =
    Net_deployment.create ~config ~seed ~pkgs:(Array.map endpoint pkgs)
      ~mixers:(Array.mapi mixer mixers) ()
  in
  Fun.protect ~finally:(fun () -> Deployment.close nd) @@ fun () ->
  Deployment.set_faults nd faults;
  f { config; seed; faults; pkgs; mixers; restart; nd }

let processes ~exe ?(metrics = false) ?faults ~config ~seed f =
  let start role name i =
    let args =
      [ "serve-" ^ role; "--seed"; seed; (if role = "pkg" then "--index" else "--position");
        string_of_int i; "--port"; "0" ]
      @ if metrics then [ "--metrics-port"; "0" ] else []
    in
    let r, w = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
    Unix.close w;
    let out = Unix.in_channel_of_descr r in
    let stop () =
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      close_in_noerr out
    in
    let rec ready () =
      match input_line out with
      | exception End_of_file ->
        stop ();
        failwith (Printf.sprintf "%s exited before READY" name)
      | line -> (
        let metrics rest = Scanf.sscanf_opt rest " metrics=%d" Fun.id in
        match Scanf.sscanf_opt line "READY port=%d%s@\n" (fun p rest -> (p, metrics rest)) with
        | Some ports -> ports
        | None -> ready ())
    in
    let port, metrics = ready () in
    { server = { name; port; metrics }; stop }
  in
  launch ~start ?faults ~config ~seed f

let domains ?faults ?(wrap = fun _ handler -> handler) ~config ~seed f =
  let start role name i =
    let srv =
      Rpc.Server.create ~port:0
        (wrap name
           (if role = "pkg" then Servers.Pkg_server.handler (Servers.Pkg_server.create ~config ~seed ~index:i)
            else Servers.Mixer_server.handler (Servers.Mixer_server.create ~config ~seed ~position:i)))
    in
    let dom = Domain.spawn (fun () -> Rpc.Server.run srv) in
    let stop () =
      Rpc.Server.stop srv;
      Domain.join dom
    in
    { server = { name; port = Rpc.Server.port srv; metrics = None }; stop }
  in
  launch ~start ?faults ~config ~seed f

let deployment t = t.nd
let servers t = List.map (fun r -> r.server) (Array.to_list (Array.append t.pkgs t.mixers))
let kill_mixer t i = t.mixers.(i).stop ()
let kill_pkg t i = t.pkgs.(i).stop ()
let restart_mixer t i = t.restart i

(* ---- the scripted scenario and the check ---- *)

type round = Af of Deployment.af_stats | Dial of Deployment.dial_stats

let scenario ~rounds d =
  let clients =
    List.map
      (fun email -> Deployment.new_client d ~email ~callbacks:Client.null_callbacks)
      [ "alice@example.org"; "bob@example.org"; "carol@example.org" ]
  in
  List.iter
    (fun c ->
      match Deployment.register d c with
      | Ok () -> ()
      | Error e -> failwith (Alpenhorn_pkg.Pkg.error_to_string e))
    clients;
  let alice, bob, carol = match clients with [ a; b; c ] -> (a, b, c) | _ -> assert false in
  Client.add_friend alice ~email:"bob@example.org" ();
  Client.add_friend carol ~email:"bob@example.org" ();
  let af = List.init rounds (fun _ -> Af (Deployment.run_addfriend_round d ())) in
  Client.call alice ~email:"bob@example.org" ~intent:1;
  Client.call bob ~email:"carol@example.org" ~intent:2;
  af @ List.init rounds (fun _ -> Dial (Deployment.run_dialing_round d ()))

let events show evs = String.concat ", " (List.map (fun (who, ev) -> who ^ "<-" ^ show ev) evs)
let sizes a = String.concat " " (Array.to_list (Array.map string_of_int a))

let round_to_string = function
  | Af s ->
    Printf.sprintf "af round %d: attempts %d, %d in, %d noise, %d dropped, %d mailboxes [%s] B — %s"
      s.Deployment.af_round s.af_attempts s.requests_in s.noise_added s.dropped s.num_mailboxes
      (sizes s.mailbox_bytes)
      (events
         (function
           | Client.Friend_request_accepted e -> "accepted:" ^ e
           | Friend_request_rejected e -> "rejected:" ^ e
           | Friend_request_key_mismatch e -> "key-mismatch:" ^ e
           | Friend_confirmed e -> "confirmed:" ^ e)
         s.events)
  | Dial s ->
    Printf.sprintf "dial round %d: attempts %d, %d in, %d noise, %d dropped, %d mailboxes [%s] B — %s"
      s.Deployment.dial_round s.dial_attempts s.tokens_in s.dial_noise_added s.dial_dropped
      s.dial_num_mailboxes (sizes s.filter_bytes)
      (events
         (fun (Client.Incoming_call { peer; intent; session_key }) ->
           Printf.sprintf "call:%s:%d:%s" peer intent (Alpenhorn_crypto.Util.to_hex session_key))
         s.calls)

(* Every [faults.*] counter and histogram count of the process-wide
   registry, which the round driver raises whatever the backend. *)
let fault_metrics () =
  let snap = Tel.Snapshot.take Tel.default in
  let faults suffix (name, labels, v) =
    if String.starts_with ~prefix:"faults." name then Some (Tel.metric_key name labels ^ suffix, v)
    else None
  in
  List.filter_map (faults "") snap.Tel.Snapshot.counters
  @ List.filter_map
      (fun (name, labels, (h : Tel.Histogram.snap)) -> faults ".count" (name, labels, h.count))
      snap.Tel.Snapshot.histograms

let measured scenario d =
  let before = fault_metrics () in
  let result = scenario d in
  let rose (k, v) =
    let up = v - Option.value ~default:0 (List.assoc_opt k before) in
    if up = 0 then None else Some (k, up)
  in
  (result, List.filter_map rose (fault_metrics ()))

let check t scenario =
  let wire = measured scenario t.nd in
  let local = Deployment.create ~config:t.config ~seed:t.seed in
  Deployment.set_faults local t.faults;
  (wire, measured scenario local)
