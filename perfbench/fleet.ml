(* pair-fleet: the round pair over localhost TCP. One PKG and three mixer
   processes are spawned from the CLI's serve-pkg / serve-mixer (which fix
   the servers to the test curve); this process is the orchestrator and
   hosts every client, so at most two processes are busy at once.

   Untraced, the library's [Net_deployment] runs the rounds. Traced, the
   benchmark runs the same rounds itself over [Proto] RPCs, with a span
   around every call (layered.ml). *)

module Ibe = Alpenhorn_ibe.Ibe
module Pkg = Alpenhorn_pkg.Pkg
module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Rpc = Alpenhorn_net.Rpc
module Proto = Alpenhorn_remote.Proto
module Net_deployment = Alpenhorn_remote.Net_deployment

let clients = 48

(* Dialing noise raised so each dialing hop relays thousands of onions, as
   noise dominates dialing traffic in the paper's deployment. *)
let config = { Config.test with Config.n_pkgs = 1; dialing_noise_mu = 500.0 }

(* ---- server processes ---- *)

type child = { pid : int; out : in_channel; port : int }

let spawn ~cli args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let rec ready () =
    match input_line out with
    | line -> (
      match Scanf.sscanf_opt line "READY port=%d" Fun.id with
      | Some port -> { pid; out; port }
      | None -> ready ())
    | exception End_of_file ->
      ignore (Unix.waitpid [] pid);
      failwith ("server exited before READY: " ^ String.concat " " args)
  in
  ready ()

let kill c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
  close_in_noerr c.out

type servers = { pkg_child : child; mixer_children : child array }

let spawn_servers ~cli ~seed =
  let pkg_child = spawn ~cli [ "serve-pkg"; "--seed"; seed; "--index"; "0"; "--port"; "0" ] in
  let mixer_children =
    Array.init config.Config.chain_length (fun i ->
        spawn ~cli [ "serve-mixer"; "--seed"; seed; "--position"; string_of_int i; "--port"; "0" ])
  in
  { pkg_child; mixer_children }

let kill_servers s =
  kill s.pkg_child;
  Array.iter kill s.mixer_children

(* Every server process is stopped and reaped on the way out, however the
   run ends. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter kill_servers !live;
      live := [])

let with_servers ~cli ~seed =
  let s = spawn_servers ~cli ~seed in
  live := s :: !live;
  s

let stop s =
  kill_servers s;
  live := List.filter (fun x -> x != s) !live

(* ---- untraced: the library's network deployment ---- *)

type fleet = { servers : servers; nd : Net_deployment.t; sc : Scenario.t }

let localhost port = { Net_deployment.host = "127.0.0.1"; port }

let set_up_fleet ~cli ~seed =
  let servers = with_servers ~cli ~seed in
  let mixers =
    Array.mapi
      (fun i c ->
        {
          Net_deployment.ep = localhost c.port;
          kill = (fun () -> kill c);
          restart = (fun () -> failwith (Printf.sprintf "mixer %d died" i));
        })
      servers.mixer_children
  in
  let nd =
    Net_deployment.create ~config ~seed ~pkgs:[| localhost servers.pkg_child.port |] ~mixers ()
  in
  let sc =
    Scenario.create ~n:clients ~max_intents:config.Config.max_intents
      ~make_client:(Net_deployment.new_client nd)
      ~runner:(fun _ ->
        Scenario.library_runner
          ~addfriend:(fun () -> Net_deployment.run_addfriend_round nd ())
          ~dialing:(fun () -> Net_deployment.run_dialing_round nd ()))
  in
  Array.iter (fun c -> Scenario.registered (Net_deployment.register nd c)) sc.Scenario.clients;
  Scenario.set_up sc;
  { servers; nd; sc }

let dispose f =
  Net_deployment.close f.nd;
  stop f.servers

let untraced ~cli ~seed ~seconds ~setups =
  let setup_s, f = Common.set_up_median ~times:setups ~dispose (fun () -> set_up_fleet ~cli ~seed) in
  let pairs = Common.repeat ~seconds ~min:3 (fun () -> Scenario.logged (Scenario.pair f.sc)) in
  dispose f;
  let attempted, failed = Scenario.tally f.sc in
  {
    Common.attempted;
    failed;
    metrics =
      (("setup_s", setup_s) :: Scenario.metrics pairs)
      @ [ ("heap_words_per_client", Common.top_heap_words () /. float_of_int clients) ];
  }

(* ---- traced: the same rounds over Proto, call by call ---- *)

type net = { mutable calls : int; mutable pkg_s : float; mutable mix_s : float; mutable connects : int }

let connect net port =
  net.connects <- net.connects + 1;
  match Rpc.Client.connect ~timeout:30.0 ~host:"127.0.0.1" ~port () with
  | Ok c -> c
  | Error m -> failwith ("connect: " ^ m)

(* One RPC round trip, timed on the orchestrator. *)
let rpc net ~pkg f =
  net.calls <- net.calls + 1;
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  if pkg then net.pkg_s <- net.pkg_s +. dt else net.mix_s <- net.mix_s +. dt;
  match r with Ok v -> v | Error m -> failwith ("rpc: " ^ m)

(* Net_deployment's calls, one RPC each: registration through the PKG's
   simulated email provider, liveness pings before the hops, one process
   RPC per hop, key erasure on every mixer. *)
let backend net ~pkg ~mix =
  let params = Config.params config in
  let pkg_rpc f = rpc net ~pkg:true (fun () -> f pkg) in
  let mix_rpc i f = rpc net ~pkg:false (fun () -> f mix.(i)) in
  let each_mixer f = Array.iteri (fun i _ -> mix_rpc i f) mix in
  let chain = function `AddFriend -> Proto.Af | `Dialing -> Proto.Dial in
  {
    Layered.config;
    pkg_public_keys = [ pkg_rpc (fun p -> Proto.pkg_info p ~params) ];
    register =
      (fun c ->
        let email = Client.email c and pk = Client.signing_public c in
        Scenario.registered (pkg_rpc (fun p -> Proto.pkg_register p ~params ~now:0 ~email ~pk));
        let token =
          match pkg_rpc (fun p -> Proto.pkg_inbox p ~email) with
          | tok :: _ -> tok
          | [] -> failwith "no confirmation email"
        in
        Scenario.registered (pkg_rpc (fun p -> Proto.pkg_confirm p ~now:0 ~email ~token)));
    rotate =
      (fun ~round ->
        let commitment = pkg_rpc (fun c -> Proto.pkg_begin_round c ~round) in
        match pkg_rpc (fun c -> Proto.pkg_reveal c ~params ~round) with
        | Error e -> failwith ("reveal: " ^ Pkg.error_to_string e)
        | Ok (mpk, opening) ->
          if not (Pkg.verify_commitment params ~commitment ~mpk ~opening) then
            failwith "PKG commitment mismatch";
          Ibe.aggregate_public params [ mpk ]);
    extract =
      (fun _ ~now ~round ~email ~signature ->
        pkg_rpc (fun p -> Proto.pkg_extract p ~params ~now ~round ~email ~signature));
    end_pkg_round = (fun ~round -> pkg_rpc (fun c -> Proto.pkg_end_round c ~round));
    new_round_keys =
      (fun mode ->
        Array.to_list
          (Array.mapi (fun i _ -> mix_rpc i (fun c -> Proto.mix_new_round c ~params ~chain:(chain mode))) mix));
    chain_start = (fun _ -> each_mixer Proto.mix_ping);
    hop =
      (fun mode i ~downstream_pks ~noise_mu ~num_mailboxes ~mpk_agg batch ->
        let mpk_agg =
          match mpk_agg with
          | Some mpk when config.Config.faithful_noise -> Ibe.master_public_bytes params mpk
          | _ -> ""
        in
        fst
          (mix_rpc i (fun c ->
               Proto.mix_process c ~params ~chain:(chain mode) ~downstream_pks ~noise_mu
                 ~laplace_b:config.Config.laplace_b ~num_mailboxes ~mpk_agg ~batch)));
    end_chain = (fun mode -> each_mixer (fun c -> Proto.mix_end_round c ~chain:(chain mode)));
  }

(* rchar+wchar and syscr+syscw of this process so far. *)
let proc_io () =
  let ic = open_in "/proc/self/io" in
  let fields = Hashtbl.create 8 in
  (try
     while true do
       Scanf.sscanf (input_line ic) "%s@: %f" (fun k v -> Hashtbl.replace fields k v)
     done
   with End_of_file -> ());
  close_in ic;
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt fields k) in
  (get "rchar" +. get "wchar", get "syscr" +. get "syscw")

(* What reading /proc/self/io at both ends of a window adds to the window:
   the median delta of back-to-back reads. *)
let proc_io_cost () =
  let deltas =
    List.init 5 (fun _ ->
        let b0, s0 = proc_io () in
        let b1, s1 = proc_io () in
        (b1 -. b0, s1 -. s0))
  in
  (Common.median (List.map fst deltas), Common.median (List.map snd deltas))

let traced ~cli ~seed ~seconds =
  let servers = with_servers ~cli ~seed in
  let tr = Spans.create () in
  let net = { calls = 0; pkg_s = 0.0; mix_s = 0.0; connects = 0 } in
  let pkg = connect net servers.pkg_child.port in
  let mix = Array.map (fun c -> connect net c.port) servers.mixer_children in
  let sc = Layered.create tr (backend net ~pkg ~mix) ~seed ~clients in
  (* socket traffic and RPC counts of the traced pairs only *)
  let io_bytes_cost, io_sys_cost = proc_io_cost () in
  let io = ref (0.0, 0.0) and calls = ref 0 and pkg_s = ref 0.0 and mix_s = ref 0.0 in
  let around f =
    let bytes0, sys0 = proc_io () in
    let calls0 = net.calls and pkg0 = net.pkg_s and mix0 = net.mix_s in
    let p = f () in
    let bytes1, sys1 = proc_io () in
    io :=
      ( fst !io +. bytes1 -. bytes0 -. io_bytes_cost,
        snd !io +. sys1 -. sys0 -. io_sys_cost );
    calls := !calls + net.calls - calls0;
    pkg_s := !pkg_s +. net.pkg_s -. pkg0;
    mix_s := !mix_s +. net.mix_s -. mix0;
    p
  in
  let started () =
    io := (0.0, 0.0);
    calls := 0;
    pkg_s := 0.0;
    mix_s := 0.0
  in
  let untraced, pairs, gc =
    Scenario.traced_pairs ~around ~started ~seconds ~pair:(fun () -> Scenario.pair sc) tr
  in
  Rpc.Client.close pkg;
  Array.iter Rpc.Client.close mix;
  stop servers;
  let n = List.length pairs in
  let per x = x /. float_of_int n in
  let attempted, failed = Scenario.tally sc in
  {
    Common.attempted;
    failed;
    metrics =
      Scenario.layer_metrics tr ~pairs:n
      @ Common.pairing_probe (Config.params config) ~calls:50
      @ Common.gc_metrics gc ~pairs:n
      @ Scenario.trace_metrics tr ~untraced ~traced:pairs
      @ [
          ("net.rpc_calls", per (float_of_int !calls));
          ("net.rpc_pkg_s", per !pkg_s);
          ("net.rpc_mix_s", per !mix_s);
          ("net.syscalls", per (snd !io));
          ("net.connects", float_of_int net.connects);
          ("net.wire_bytes_per_pair", per (fst !io));
        ];
  }
