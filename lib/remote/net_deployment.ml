(* The RPC backend of [Alpenhorn_core.Deployment]: every PKG and mixnet
   server operation of its rounds becomes a framed TCP call
   ([Proto]) to a server process. Clients live in this process (the client
   library is transport-agnostic); the orchestrator relays the batch
   through the mixer processes hop by hop, and [Deployment] distributes the
   final payloads into mailboxes locally.

   Determinism: server processes derive their DRBGs along the in-process
   deployment's labels ([Servers]) and clients derive identically in
   [Deployment], so this backend reproduces the in-process protocol results
   (events and session keys), even across aborted attempts. Noise bytes and
   a respawned mixer's round keys and shuffle legitimately differ.

   Faults: a crash in the schedule kills the mixer's process (the
   harness's [kill]) and recovery respawns it ([restart]). The anytrust
   abort is detected as a transport failure: a dead mixer fails the
   pre-processing ping (no mixer processes a batch on an aborted attempt)
   or a mid-pipeline call. *)

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
  (* PKGs are trusted infrastructure (the fault grammar targets mixers and
     clients): a PKG transport failure is fatal. *)
  let pkg i f =
    match call n pkgs.(i) ~peer:(Printf.sprintf "pkg-%d" i) f with
    | Ok v -> v
    | Error m -> failwith (Printf.sprintf "pkg %d: %s" i m)
  in
  (* A mixer transport failure is the anytrust abort signal. *)
  let killed = Array.make (Array.length mixers) false in
  let mixer i f =
    if killed.(i) then raise (Chain.Aborted { server = i });
    match call n mixers.(i).ep ~peer:(Printf.sprintf "mixer-%d" i) f with
    | Ok v -> v
    | Error _ -> raise (Chain.Aborted { server = i })
  in
  let each_mixer f = Array.iteri (fun i _ -> mixer i f) mixers in
  let chain = function `AddFriend -> Proto.Af | `Dialing -> Proto.Dial in
  let round_pks = Hashtbl.create 2 in
  {
    Deployment.pkg_public_keys =
      List.init (Array.length pkgs) (fun i -> pkg i (fun c -> Proto.pkg_info c ~params));
    register =
      (fun i ~now ~email ~pk -> pkg i (fun c -> Proto.pkg_register c ~params ~now ~email ~pk));
    inbox = (fun i ~email -> pkg i (fun c -> Proto.pkg_inbox c ~email));
    confirm = (fun i ~now ~email ~token -> pkg i (fun c -> Proto.pkg_confirm c ~now ~email ~token));
    begin_round = (fun i ~round -> pkg i (fun c -> Proto.pkg_begin_round c ~round));
    reveal = (fun i ~round -> pkg i (fun c -> Proto.pkg_reveal c ~params ~round));
    extract_batch =
      (fun i ~now ~round requests ->
        Array.map
          (fun (email, signature) ->
            pkg i (fun c -> Proto.pkg_extract c ~params ~now ~round ~email ~signature))
          requests);
    end_round = (fun i ~round -> pkg i (fun c -> Proto.pkg_end_round c ~round));
    new_round_keys =
      (fun mode ->
        let pks =
          List.init (Array.length mixers) (fun i ->
              mixer i (fun c -> Proto.mix_new_round c ~params ~chain:(chain mode)))
        in
        Hashtbl.replace round_pks (chain mode) (Array.of_list pks);
        pks);
    (* [Chain.mix], distributed: an up-front liveness ping, then one
       [process] call per hop threading the batch, then key erasure
       everywhere. Trace contexts do not cross processes. *)
    mix =
      (fun mode ~tracer:_ ~noise_mu ~num_mailboxes ~mpk_agg batch ->
        let chain = chain mode in
        each_mixer Proto.mix_ping;
        let mpk_agg =
          match mpk_agg with
          | Some mpk when config.Config.faithful_noise -> Ibe.master_public_bytes params mpk
          | _ -> ""
        in
        let pks = Hashtbl.find round_pks chain and hops = Array.length mixers in
        let noise = ref 0 and current = ref (Array.map fst batch) in
        for i = 0 to hops - 1 do
          let downstream_pks = Array.to_list (Array.sub pks (i + 1) (hops - i - 1)) in
          let out, added =
            mixer i (fun c ->
                Proto.mix_process c ~params ~chain ~downstream_pks ~noise_mu
                  ~laplace_b:config.Config.laplace_b ~num_mailboxes ~mpk_agg ~batch:!current)
          in
          noise := !noise + added;
          current := out
        done;
        each_mixer (fun c -> Proto.mix_end_round c ~chain);
        (!current, !noise, []));
    crash =
      (fun _ ~server ->
        if not killed.(server) then begin
          drop_conn n mixers.(server).ep;
          mixers.(server).kill ();
          killed.(server) <- true;
          Events.log Events.default ~severity:Warn
            ~labels:[ ("server", string_of_int server) ]
            ~detail:"mixer process killed by fault schedule" "net.mixer_killed"
        end);
    recover =
      (fun mode ->
        (* end-of-round key erasure on every mixer that still answers; a
           killed process lost its round key with the process *)
        Array.iteri
          (fun i _ ->
            try mixer i (fun c -> Proto.mix_end_round c ~chain:(chain mode))
            with Chain.Aborted _ -> ())
          mixers;
        Array.iteri
          (fun i m ->
            if killed.(i) then begin
              m.ep <- m.restart ();
              killed.(i) <- false;
              Events.log Events.default
                ~labels:[ ("server", string_of_int i) ]
                ~detail:(Printf.sprintf "mixer respawned on port %d" m.ep.port)
                "net.mixer_restarted"
            end)
          mixers);
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
