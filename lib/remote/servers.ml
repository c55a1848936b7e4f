(* Server-process logic for the framed RPC protocol: a PKG process and a
   mixer process, each as a state record plus the table of [Proto]
   operations it serves, which [Proto.serve] turns into the
   [Framing.frame -> Framing.frame] handler that [Rpc.Server] dispatches.

   Determinism contract (DESIGN.md §13): a server process builds its PKG
   or mixnet servers with [Deployment]'s own constructors, which derive
   each DRBG from the seed (a pure HMAC fork, consuming nothing), so a
   multi-process deployment reproduces the in-process protocol results:
   clients see the same events and session keys. Two things differ, never
   a client-visible event: each mixer samples noise from its own
   ["net-noise-*"] stream, and a respawned mixer restarts its DRBG where
   the in-process server continues its stream, so its round keys and
   shuffle change (clients scan add-friend hits in plaintext order). *)

module Framing = Alpenhorn_net.Framing
module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Pkg = Alpenhorn_pkg.Pkg
module Server = Alpenhorn_mixnet.Server
module Wire = Alpenhorn_core.Wire
module Config = Alpenhorn_core.Config
module Deployment = Alpenhorn_core.Deployment

(* ---- PKG process ---- *)

module Pkg_server = struct
  type t = {
    params : Params.t;
    pkg : Pkg.t;
    inbox : email:string -> string list; (* simulated provider, local *)
  }

  (* PKG [index] of [Deployment.create], built by the same constructor *)
  let create ~config ~seed ~index =
    let pkg, inbox = Deployment.new_pkg ~config ~seed ~index in
    { params = Config.params config; pkg; inbox }

  let handler_traced t =
    let p = t.params in
    Proto.(
      serve
        [
          Handler (Op.pkg_info p, fun () -> Ok (Pkg.long_term_public t.pkg));
          Handler (Op.pkg_register p, fun (now, email, pk) -> Pkg.register t.pkg ~now ~email ~pk);
          Handler (Op.pkg_inbox, fun email -> Ok (t.inbox ~email));
          Handler (Op.pkg_confirm, fun (now, email, token) -> Pkg.confirm t.pkg ~now ~email ~token);
          Handler (Op.pkg_begin_round, fun round -> Ok (Pkg.begin_round t.pkg ~round));
          Handler (Op.pkg_reveal p, fun round -> Pkg.reveal_round t.pkg ~round);
          Handler
            ( Op.pkg_extract p,
              fun (now, round, email, signature) -> Pkg.extract t.pkg ~now ~round ~email ~signature );
          Handler (Op.pkg_end_round, fun round -> Ok (Pkg.end_round t.pkg ~round));
        ])

  let handler t = handler_traced t ~trace:None
end

(* ---- mixer process ---- *)

module Mixer_server = struct
  type t = {
    params : Params.t;
    position : int;
    chain_length : int;
    af : Server.t;
    dial : Server.t;
    noise_rng : Drbg.t; (* mixer-local noise stream; see module header *)
  }

  (* Chain position [position] of both chains of [Deployment.create], built
     by the same constructor *)
  let create ~config ~seed ~position =
    let server mode = Deployment.new_mix_server ~config ~seed mode ~position in
    {
      params = Config.params config;
      position;
      chain_length = config.Config.chain_length;
      af = server `AddFriend;
      dial = server `Dialing;
      noise_rng = Drbg.derive (Deployment.root_rng ~seed) (Printf.sprintf "net-noise-%d" position);
    }

  let server t = function Proto.Af -> t.af | Proto.Dial -> t.dial

  let handler_traced t =
    Proto.(
      serve
        [
          Handler (Op.mix_info, fun () -> Ok (t.position, t.chain_length));
          Handler (Op.mix_new_round t.params, fun ch -> Ok (Server.new_round (server t ch)));
          Handler
            ( Op.mix_process t.params,
              fun ((ch, downstream_pks, noise_mu, laplace_b), (num_mailboxes, mpk_agg, batch)) ->
                let out, noise =
                  Server.process (server t ch) ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes
                    ~noise_body:
                      (Wire.noise_body t.params t.noise_rng
                         (match ch with Af -> `AddFriend | Dial -> `Dialing)
                         ~mpk_agg)
                    batch
                in
                Ok (noise, out) );
          Handler (Op.mix_end_round, fun ch -> Ok (Server.end_round (server t ch)));
          Handler (Op.mix_ping, fun () -> Ok ());
        ])

  let handler t = handler_traced t ~trace:None
end
