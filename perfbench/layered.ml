(* The benchmark's own driver of the round pair, for the traced runs:
   Deployment's add-friend and dialing rounds written out call by call,
   with a span around every call into a layer. The rounds are written once
   here, over a [backend] of the calls that reach the PKGs and the mixnet
   servers: pair-inproc supplies in-process handles, pair-fleet [Proto]
   RPCs to server processes. Clients are derived along
   Deployment.new_client's DRBG labels. *)

module Drbg = Alpenhorn_crypto.Drbg
module Bls = Alpenhorn_bls.Bls
module Dh = Alpenhorn_dh.Dh
module Ibe = Alpenhorn_ibe.Ibe
module Pkg = Alpenhorn_pkg.Pkg
module Mailbox = Alpenhorn_mixnet.Mailbox
module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client

type mode = [ `AddFriend | `Dialing ]

type backend = {
  config : Config.t;
  pkg_public_keys : Bls.public list;
  register : Client.t -> unit;  (** registration and email confirmation at every PKG *)
  rotate : round:int -> Ibe.master_public;
      (** every PKG's begin, reveal and commitment check; the aggregate key *)
  extract :
    int ->
    now:int ->
    round:int ->
    email:string ->
    signature:Bls.signature ->
    (Ibe.identity_key * Bls.signature, Pkg.error) result;
  end_pkg_round : round:int -> unit;
  new_round_keys : mode -> Dh.public list;
  chain_start : mode -> unit;  (** before the first hop *)
  hop :
    mode ->
    int ->
    downstream_pks:Dh.public list ->
    noise_mu:float ->
    num_mailboxes:int ->
    mpk_agg:Ibe.master_public option ->
    string array ->
    string array;
      (** one mixnet server's unwrap, noise and shuffle; [mpk_agg] is set
          in add-friend rounds *)
  end_chain : mode -> unit;  (** round key erasure on every server *)
}

type rounds = { mutable clock : int; mutable af_round : int; mutable dial_round : int }

let span = Spans.span

let num_mailboxes b cs ~noise_mu =
  Scenario.num_mailboxes ~config:b.config ~clients:(List.length cs) ~noise_mu

let run_chain tr b mode ~server_pks ~noise_mu ~num_mailboxes ~mpk_agg batch =
  span tr "mixnet.keys" (fun () -> b.chain_start mode);
  let pks = Array.of_list server_pks in
  let n = Array.length pks in
  let current = ref batch in
  for i = 0 to n - 1 do
    let downstream_pks = Array.to_list (Array.sub pks (i + 1) (n - i - 1)) in
    current :=
      span tr "mixnet.hop" (fun () ->
          b.hop mode i ~downstream_pks ~noise_mu ~num_mailboxes ~mpk_agg !current)
  done;
  span tr "mixnet.keys" (fun () -> b.end_chain mode);
  !current

(* Deployment.run_addfriend_round, step by step. *)
let addfriend tr b r cs () =
  r.af_round <- r.af_round + 1;
  let round = r.af_round and config = b.config in
  let mpk_agg = span tr "pkg.rotate" (fun () -> b.rotate ~round) in
  let noise_mu = config.Config.addfriend_noise_mu in
  let num_mailboxes = num_mailboxes b cs ~noise_mu in
  let server_pks = span tr "mixnet.keys" (fun () -> b.new_round_keys `AddFriend) in
  let contexts =
    List.map
      (fun c ->
        span tr "client.begin_addfriend" (fun () ->
            match
              Client.begin_addfriend_round_with c ~round
                ~n_pkgs:(List.length b.pkg_public_keys)
                ~extract:(fun i ~email ~signature ->
                  span tr "pkg.extract" (fun () -> b.extract i ~now:r.clock ~round ~email ~signature))
            with
            | Ok ctx -> (c, ctx)
            | Error e -> failwith ("extract: " ^ Pkg.error_to_string e)))
      cs
  in
  let batch =
    List.map
      (fun (c, ctx) ->
        span tr "client.submit" (fun () ->
            Client.addfriend_submission c ctx ~mpk_agg ~num_mailboxes ~server_pks))
      contexts
  in
  let final =
    run_chain tr b `AddFriend ~server_pks ~noise_mu ~num_mailboxes ~mpk_agg:(Some mpk_agg)
      (Array.of_list batch)
  in
  let mailboxes, _ =
    span tr "mailbox.distribute" (fun () -> Mailbox.distribute ~num_mailboxes ~mode:`AddFriend final)
  in
  let buckets = Mailbox.plain_exn mailboxes in
  let events =
    List.concat_map
      (fun (c, ctx) ->
        let mb = Mailbox.mailbox_of_identity (Client.email c) ~num_mailboxes in
        span tr "client.scan_addfriend" (fun () -> Client.scan_addfriend_mailbox c ctx buckets.(mb))
        |> List.map (fun ev -> (Client.email c, ev)))
      contexts
  in
  span tr "pkg.rotate" (fun () -> b.end_pkg_round ~round);
  r.clock <- r.clock + config.Config.addfriend_round_seconds;
  { Scenario.events; af_download = Scenario.largest (Mailbox.size_bytes mailboxes) }

(* Deployment.run_dialing_round, step by step (unsharded, no faults). *)
let dialing tr b r cs () =
  let round = r.dial_round + 1 in
  r.dial_round <- round;
  let noise_mu = b.config.Config.dialing_noise_mu in
  let num_mailboxes = num_mailboxes b cs ~noise_mu in
  span tr "client.scan_dialing" (fun () -> List.iter (fun c -> Client.advance_dialing c ~round) cs);
  let server_pks = span tr "mixnet.keys" (fun () -> b.new_round_keys `Dialing) in
  let batch =
    List.map
      (fun c ->
        span tr "client.submit" (fun () -> Client.dialing_submission c ~num_mailboxes ~server_pks))
      cs
  in
  let final =
    run_chain tr b `Dialing ~server_pks ~noise_mu ~num_mailboxes ~mpk_agg:None (Array.of_list batch)
  in
  let mailboxes, _ =
    span tr "mailbox.distribute" (fun () -> Mailbox.distribute ~num_mailboxes ~mode:`Dialing final)
  in
  let filters = Mailbox.filters_exn mailboxes in
  List.iter
    (fun c ->
      let mb = Mailbox.mailbox_of_identity (Client.email c) ~num_mailboxes in
      ignore (span tr "client.scan_dialing" (fun () -> Client.scan_dialing_mailbox c filters.(mb))))
    cs;
  r.clock <- r.clock + b.config.Config.dialing_round_seconds;
  Scenario.largest (Mailbox.size_bytes mailboxes)

(* [clients] clients registered through [b], with the scenario's
   friendships set up. *)
let create tr b ~seed ~clients =
  let rng = Drbg.create ~seed:("deployment" ^ seed) in
  let r = { clock = 0; af_round = 0; dial_round = 0 } in
  let sc =
    Scenario.create ~n:clients ~max_intents:b.config.Config.max_intents
      ~make_client:(fun ~email ~callbacks ->
        Client.create ~config:b.config ~rng:(Drbg.derive rng ("client-" ^ email)) ~email
          ~pkg_public_keys:b.pkg_public_keys ~callbacks)
      ~runner:(fun cs ->
        let cs = Array.to_list cs in
        { Scenario.addfriend = addfriend tr b r cs; dialing = dialing tr b r cs })
  in
  Array.iter b.register sc.Scenario.clients;
  Scenario.set_up sc;
  sc
