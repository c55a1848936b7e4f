(* pair-inproc: the round pair in one process, on the production curve.

   Untraced, the library's own [Deployment] runs the rounds. Traced, the
   benchmark runs the same rounds itself through each layer's public
   functions — PKGs, mixnet servers, mailboxes, clients — with a span
   around every call (layered.ml over in-process handles). Both are built
   from the same seed along the same DRBG derivations. *)

module Drbg = Alpenhorn_crypto.Drbg
module Util = Alpenhorn_crypto.Util
module Ibe = Alpenhorn_ibe.Ibe
module Pkg = Alpenhorn_pkg.Pkg
module Server = Alpenhorn_mixnet.Server
module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Wire = Alpenhorn_core.Wire
module Costmodel = Alpenhorn_sim.Costmodel
module Tel = Alpenhorn_telemetry.Telemetry

let clients = 12
let config = { Config.test with Config.param_name = "production" }

(* Deployment, registration and friendships: everything before the first
   measured round pair. *)
let set_up_deployment ~seed =
  let d = Deployment.create ~config ~seed in
  let sc =
    Scenario.create ~n:clients ~max_intents:config.Config.max_intents
      ~make_client:(Deployment.new_client d)
      ~runner:(fun _ ->
        Scenario.library_runner
          ~addfriend:(fun () -> Deployment.run_addfriend_round d ())
          ~dialing:(fun () -> Deployment.run_dialing_round d ()))
  in
  Array.iter (fun c -> Scenario.registered (Deployment.register d c)) sc.Scenario.clients;
  Scenario.set_up sc;
  sc

(* ---- the same deployment, driven layer by layer ---- *)

(* In-process PKGs and mixnet servers, along the same DRBG derivations as
   Deployment.create / Chain.create, with the same email-confirmation
   registration and faithful noise. *)
let backend tr ~seed =
  let params = Config.params config in
  let rng = Drbg.create ~seed:("deployment" ^ seed) in
  let inbox = Hashtbl.create 64 in
  let pkgs =
    Array.init config.Config.n_pkgs (fun i ->
        Pkg.create params
          ~rng:(Drbg.derive rng (Printf.sprintf "pkg-%d" i))
          ~send_email:(fun ~to_ ~token -> Hashtbl.replace inbox (i, to_) token)
          ())
  in
  let servers label =
    let chain_rng = Drbg.derive rng label in
    Array.init config.Config.chain_length (fun i ->
        Server.create params
          ~rng:(Drbg.derive chain_rng (Printf.sprintf "mix-server-%d" i))
          ~position:i ~chain_length:config.Config.chain_length)
  in
  let af_servers = servers "af-chain" and dial_servers = servers "dial-chain" in
  let chain = function `AddFriend -> af_servers | `Dialing -> dial_servers in
  {
    Layered.config;
    pkg_public_keys = Array.to_list (Array.map Pkg.long_term_public pkgs);
    register =
      (fun c ->
        let email = Client.email c and pk = Client.signing_public c in
        Array.iteri
          (fun i pkg ->
            Scenario.registered (Pkg.register pkg ~now:0 ~email ~pk);
            Scenario.registered
              (Pkg.confirm pkg ~now:0 ~email ~token:(Hashtbl.find inbox (i, email))))
          pkgs);
    rotate =
      (fun ~round ->
        let commitments = Array.map (fun pkg -> Pkg.begin_round pkg ~round) pkgs in
        Array.to_list pkgs
        |> List.mapi (fun i pkg ->
               match Pkg.reveal_round pkg ~round with
               | Error e -> failwith ("reveal: " ^ Pkg.error_to_string e)
               | Ok (mpk, opening) ->
                 if not (Pkg.verify_commitment params ~commitment:commitments.(i) ~mpk ~opening)
                 then failwith "PKG commitment mismatch";
                 mpk)
        |> Ibe.aggregate_public params);
    extract =
      (fun i ~now ~round ~email ~signature -> Pkg.extract pkgs.(i) ~now ~round ~email ~signature);
    end_pkg_round = (fun ~round -> Array.iter (fun pkg -> Pkg.end_round pkg ~round) pkgs);
    new_round_keys = (fun mode -> Array.to_list (Array.map Server.new_round (chain mode)));
    chain_start = ignore;
    hop =
      (fun mode i ~downstream_pks ~noise_mu ~num_mailboxes ~mpk_agg batch ->
        (* faithful noise, as Deployment's noise bodies *)
        let noise_body () =
          match mpk_agg with
          | Some mpk ->
            let id = "noise-" ^ Util.to_hex (Drbg.bytes rng 8) in
            Ibe.encrypt params rng mpk ~id (Drbg.bytes rng (Wire.request_plaintext_size params))
          | None -> Drbg.bytes rng Wire.dial_token_size
        in
        fst
          (Server.process (chain mode).(i) ~downstream_pks ~noise_mu
             ~laplace_b:config.Config.laplace_b ~num_mailboxes
             ~noise_body:(fun ~mailbox:_ -> Spans.span tr "mixnet.noise" noise_body)
             batch));
    end_chain = (fun mode -> Array.iter Server.end_round (chain mode));
  }

(* ---- the workload ---- *)

let untraced ~seed ~seconds ~setups =
  let setup_s, sc =
    Common.set_up_median ~times:setups ~dispose:ignore (fun () -> set_up_deployment ~seed)
  in
  let pairs = Common.repeat ~seconds ~min:3 (fun () -> Scenario.logged (Scenario.pair sc)) in
  let attempted, failed = Scenario.tally sc in
  {
    Common.attempted;
    failed;
    metrics =
      (("setup_s", setup_s) :: Scenario.metrics pairs)
      @ [ ("heap_words_per_client", Common.top_heap_words () /. float_of_int clients) ];
  }

(* Measured vs predicted for the scan, unwrap and extraction layers, per
   round pair. The prediction prices this round's exact message counts
   with Costmodel's add-friend/dialing formulas on constants measured here
   (network terms zeroed: nothing crosses a link in process). Costmodel has
   no extraction term; extraction is priced as the BLS verification each
   request costs, two pairings at the measured pairing time. *)
let costmodel_residuals params ~n_users ~measured_scan ~measured_unwrap ~measured_extract ~mailbox_requests =
  let m = Costmodel.measure_local params in
  let pc = Costmodel.protocol_costs params in
  let m = { m with Costmodel.rtt = 0.0; link_bandwidth = infinity; client_bandwidth = infinity } in
  let n_servers = config.Config.chain_length in
  let active_fraction = config.Config.active_fraction in
  let af =
    Costmodel.addfriend_round { m with Costmodel.t_ibe_encrypt = 0.0 } pc ~n_users ~n_servers
      ~noise_mu:config.Config.addfriend_noise_mu ~active_fraction ~mailbox_requests ()
  in
  let dial =
    Costmodel.dialing_round { m with Costmodel.t_token = 0.0 } pc ~n_users ~n_servers
      ~noise_mu:config.Config.dialing_noise_mu ~active_fraction ~friends:0 ~intents:0 ()
  in
  let sum = Array.fold_left ( +. ) 0.0 in
  let rows =
    [
      ("scan", measured_scan, af.Costmodel.scan_seconds *. float_of_int n_users);
      ("unwrap", measured_unwrap, sum af.Costmodel.server_seconds +. sum dial.Costmodel.server_seconds);
      ( "extract",
        measured_extract,
        float_of_int (n_users * config.Config.n_pkgs) *. 2.0 *. m.Costmodel.t_pairing );
    ]
  in
  Printf.eprintf "costmodel residuals per round pair (measured vs predicted):\n";
  List.map
    (fun (layer, measured, predicted) ->
      let ratio = measured /. predicted in
      Printf.eprintf "  %-8s %9.4f s %9.4f s  x%.2f%s\n" layer measured predicted ratio
        (if Float.abs (ratio -. 1.0) > 0.25 then "  past the 25% residual" else "");
      ("costmodel." ^ layer ^ "_ratio", ratio))
    rows

let traced ~seed ~seconds =
  let tr = Spans.create () in
  let sc = Layered.create tr (backend tr ~seed) ~seed ~clients in
  (* the unwrap layer's own timer (Server's mix.unwrap_seconds), read
     around the traced pairs only *)
  let unwrap = ref 0.0 in
  let around f =
    ignore (Tel.Snapshot.take ~reset:true Tel.default);
    let p = f () in
    unwrap := !unwrap +. Tel.Snapshot.hist_sum (Tel.Snapshot.take Tel.default) "mix.unwrap_seconds";
    p
  in
  let untraced, pairs, gc =
    Scenario.traced_pairs ~around ~started:(fun () -> unwrap := 0.0) ~seconds
      ~pair:(fun () -> Scenario.pair sc)
      tr
  in
  let n = List.length pairs in
  let per x = x /. float_of_int n in
  let params = Config.params config in
  let last = List.nth pairs (n - 1) in
  let residuals =
    costmodel_residuals params ~n_users:clients
      ~measured_scan:(per (Spans.self_s tr "client.scan_addfriend"))
      ~measured_unwrap:(per !unwrap)
      ~measured_extract:(per (Spans.self_s tr "pkg.extract"))
      ~mailbox_requests:(last.Scenario.af_bytes / Wire.request_ciphertext_size params)
  in
  let attempted, failed = Scenario.tally sc in
  {
    Common.attempted;
    failed;
    metrics =
      Scenario.layer_metrics tr ~pairs:n
      @ residuals
      @ Common.pairing_probe params ~calls:10
      @ Common.gc_metrics gc ~pairs:n
      @ Scenario.trace_metrics tr ~untraced ~traced:pairs;
  }
