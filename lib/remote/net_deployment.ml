(* The RPC backend of [Alpenhorn_core.Deployment]: every PKG operation of
   its rounds becomes a framed TCP call ([Proto]) to a server process, and
   each mixer process is one hop of both [Chain]s, so the in-process mix
   pipeline relays the batch through the mixers. Clients live in this
   process (the client library is transport-agnostic), and [Deployment]
   distributes the final payloads into mailboxes locally.

   Determinism: server processes build their servers with [Deployment]'s
   own constructors ([Servers]) and clients derive identically in
   [Deployment], so this backend reproduces the in-process protocol results
   (events and session keys), even across aborted attempts. Noise bytes and
   a respawned mixer's round keys and shuffle legitimately differ.

   Faults: a hop's crash kills the mixer's process (the harness's [kill])
   and its restart respawns it ([restart]). A hop is down when its mixer
   was killed or a call to it fails: a dead mixer fails the chain's
   liveness ping (no mixer processes a batch on an aborted attempt) or a
   mid-pipeline call. A PKG is down when a call to it fails in a round;
   [Deployment] aborts the attempt either way. *)

module Config = Alpenhorn_core.Config
module Deployment = Alpenhorn_core.Deployment
module Ibe = Alpenhorn_ibe.Ibe
module Chain = Alpenhorn_mixnet.Chain
module Rpc = Alpenhorn_net.Rpc
module Events = Alpenhorn_telemetry.Events
module Tel = Alpenhorn_telemetry.Telemetry
module Trace = Alpenhorn_telemetry.Trace

type endpoint = { host : string; port : int }

type mixer = {
  mutable ep : endpoint;
  kill : unit -> unit;
  restart : unit -> endpoint;
}

type t = Deployment.t

(* how long a connect or a call may take *)
let call_timeout = 10.0

type conns = {
  cache : (string, Rpc.Client.t) Hashtbl.t; (* one connection per endpoint *)
  mutable round : (Trace.t * Trace.ctx) option; (* the traced round in flight *)
}

let ep_key ep = Printf.sprintf "%s:%d" ep.host ep.port

let drop_conn n ep =
  let key = ep_key ep in
  Option.iter
    (fun conn ->
      Rpc.Client.close conn;
      Hashtbl.remove n.cache key)
    (Hashtbl.find_opt n.cache key)

let conn n ep =
  let key = ep_key ep in
  match Hashtbl.find_opt n.cache key with
  | Some c -> Ok c
  | None ->
    Result.map
      (fun c ->
        Hashtbl.replace n.cache key c;
        c)
      (Rpc.Client.connect ~timeout:call_timeout ~host:ep.host ~port:ep.port ())

(* Cross-process trace propagation (DESIGN.md §14): under a traced round
   each RPC gets two child contexts of the round's root — [call_ctx] names
   the client-side "rpc.call" span, and [wire_ctx] (its child) rides the
   frame envelope to the server, which emits its handler span under that
   identity verbatim. Merged fleet snapshots therefore stitch client →
   server spans into one timeline. Contexts never touch protocol payloads,
   only the RPC envelope, so onions stay byte-identical (§9). *)
let call n ep ~peer f =
  match conn n ep with
  | Error m -> Error m
  | Ok c -> (
    let r =
      match n.round with
      | None -> f c
      | Some (tr, ctx) ->
        let call_ctx = Trace.child tr ctx in
        Rpc.Client.set_trace c (Some (Trace.labels_of (Trace.child tr call_ctx)));
        let t0 = Tel.now (Trace.registry tr) in
        Fun.protect
          ~finally:(fun () ->
            Trace.emit tr call_ctx
              ~labels:[ ("peer", peer) ]
              ~name:"rpc.call" ~ts:t0
              ~dur:(Tel.now (Trace.registry tr) -. t0)
              ())
          (fun () -> f c)
    in
    if Result.is_error r then drop_conn n ep;
    r)

let backend ~config ~pkgs ~mixers =
  let params = Config.params config in
  let n = { cache = Hashtbl.create 8; round = None } in
  (* PKG [j]: in a round, a transport failure is a PKG that is down, the
     anytrust abort signal; registration runs outside any round, so there
     it is fatal. *)
  let pkg j ep =
    let call f = call n ep ~peer:(Printf.sprintf "pkg-%d" j) f in
    let fatal f =
      match call f with Ok v -> v | Error m -> failwith (Printf.sprintf "pkg %d: %s" j m)
    in
    {
      Deployment.public_key = fatal (Proto.pkg_info ~params);
      register = (fun ~now ~email ~pk -> fatal (Proto.pkg_register ~params ~now ~email ~pk));
      inbox = (fun ~email -> fatal (Proto.pkg_inbox ~email));
      confirm = (fun ~now ~email ~token -> fatal (Proto.pkg_confirm ~now ~email ~token));
      begin_round = (fun ~round -> Result.to_option (call (Proto.pkg_begin_round ~round)));
      reveal = (fun ~round -> Result.to_option (call (Proto.pkg_reveal ~params ~round)));
      (* one call per request, up to the first transport failure *)
      extract_batch =
        (fun ~now ~round requests ->
          let exception Down in
          let extract (email, signature) =
            match call (Proto.pkg_extract ~params ~now ~round ~email ~signature) with
            | Ok answer -> answer
            | Error _ -> raise Down
          in
          try Some (Array.map extract requests) with Down -> None);
      (* a PKG that is down cannot be told *)
      end_round = (fun ~round -> ignore (call (Proto.pkg_end_round ~round)));
    }
  in
  let killed = Array.make (Array.length mixers) false in
  (* Mixer [i] as hop [i] of the chain [ch]: a killed mixer or a transport
     failure is a hop that is down, the anytrust abort signal. The process
     hosts both chains, so a crash takes down both of its hops. *)
  let hop ch i =
    let m = mixers.(i) in
    let call f =
      if killed.(i) then None
      else Result.to_option (call n m.ep ~peer:(Printf.sprintf "mixer-%d" i) f)
    in
    {
      Chain.rotate = (fun () -> call (fun c -> Proto.mix_new_round c ~params ~chain:ch));
      (* trace contexts do not cross processes *)
      process =
        (fun ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes ~noise ~tracer:_ batch ->
          let mpk_agg = Option.fold ~none:"" ~some:(Ibe.master_public_bytes params) noise in
          call (fun c ->
              Proto.mix_process c ~params ~chain:ch ~downstream_pks ~noise_mu ~laplace_b
                ~num_mailboxes ~mpk_agg ~batch:(Chain.payloads batch))
          |> Option.map (fun (out, added) -> (Chain.Plain out, added)));
      (* a killed process lost its round key with the process *)
      erase = (fun () -> ignore (call (fun c -> Proto.mix_end_round c ~chain:ch)));
      is_up = (fun () -> Option.is_some (call Proto.mix_ping));
      crash =
        (fun () ->
          if not killed.(i) then begin
            drop_conn n m.ep;
            m.kill ();
            killed.(i) <- true;
            Events.log Events.default ~severity:Warn
              ~labels:[ ("server", string_of_int i) ]
              ~detail:"mixer process killed by fault schedule" "net.mixer_killed"
          end);
      restart =
        (fun () ->
          if killed.(i) then begin
            m.ep <- m.restart ();
            killed.(i) <- false;
            Events.log Events.default
              ~labels:[ ("server", string_of_int i) ]
              ~detail:(Printf.sprintf "mixer respawned on port %d" m.ep.port)
              "net.mixer_restarted"
          end);
    }
  in
  let chain ch = Chain.create (Array.init (Array.length mixers) (hop ch)) in
  let af = chain Proto.Af and dial = chain Proto.Dial in
  {
    Deployment.pkgs = Array.mapi pkg pkgs;
    chain = (function `AddFriend -> af | `Dialing -> dial);
    (* one sampled root per round (retries included): "net.round", with
       every RPC of the round as a child *)
    trace_round =
      (fun tr ~phase ~round f ->
        match Trace.sample tr with
        | None -> f None
        | Some ctx ->
          n.round <- Some (tr, ctx);
          Fun.protect
            ~finally:(fun () -> n.round <- None)
            (fun () ->
              Trace.with_ tr ctx
                ~labels:[ ("phase", phase); ("round", string_of_int round) ]
                "net.round"
                (fun () -> f None)));
    close =
      (fun () ->
        Hashtbl.iter (fun _ c -> Rpc.Client.close c) n.cache;
        Hashtbl.reset n.cache);
  }

let create ~config ~seed ~pkgs ~mixers () =
  (match Config.validate config with
  | Ok () -> ()
  | Error m -> invalid_arg ("Net_deployment.create: " ^ m));
  if Array.length pkgs <> config.Config.n_pkgs then
    invalid_arg "Net_deployment.create: pkg endpoint count <> n_pkgs";
  if Array.length mixers <> config.Config.chain_length then
    invalid_arg "Net_deployment.create: mixer count <> chain_length";
  Deployment.of_backend ~config ~seed (backend ~config ~pkgs ~mixers)

let close = Deployment.close
let new_client = Deployment.new_client
let register = Deployment.register
let run_addfriend_round = Deployment.run_addfriend_round
let run_dialing_round = Deployment.run_dialing_round
