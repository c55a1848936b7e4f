(* Server-process logic for the framed RPC protocol: a PKG process and a
   mixer process, each as a state record plus a pure-ish
   [Framing.frame -> Framing.frame] handler that [Rpc.Server] dispatches.

   Determinism contract (DESIGN.md §13): a server process derives its DRBG
   from the deployment seed exactly like the in-process [Deployment] does
   (the derivation is a pure HMAC fork, consuming nothing), so a
   multi-process deployment reproduces the in-process protocol results:
   clients see the same events and session keys. Noise is the exception —
   each mixer samples noise from its own ["net-noise-*"] stream instead of
   the orchestrator's, which changes noise bytes but never a client-visible
   event. *)

module Framing = Alpenhorn_net.Framing
module Rpc = Alpenhorn_net.Rpc
module F = Framing.Fields
module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Bls = Alpenhorn_bls.Bls
module Ibe = Alpenhorn_ibe.Ibe
module Dh = Alpenhorn_dh.Dh
module Pkg = Alpenhorn_pkg.Pkg
module Server = Alpenhorn_mixnet.Server
module Wire = Alpenhorn_core.Wire
module Config = Alpenhorn_core.Config

let root_rng ~seed = Drbg.create ~seed:("deployment" ^ seed)

module Tel = Alpenhorn_telemetry.Telemetry

let malformed () = failwith "malformed request"

(* Trace propagation (DESIGN.md §14): when the RPC envelope carried
   trace labels, time the handler and emit one span under those labels
   verbatim. Span ids are minted only by the orchestrator's tracer — a
   server never mints, it replays the carried identity — so spans
   emitted by every process of the fleet stitch into one timeline when
   the collector merges their snapshots. Emitted even when the handler
   raises: a failed protocol step still shows up in its trace. *)
let traced handler ~trace (request : Framing.frame) =
  match trace with
  | None -> handler request
  | Some labels ->
    let t0 = Tel.now Tel.default in
    let finish () =
      Tel.Span.emit Tel.default ~labels
        ~name:(Proto.tag_name request.Framing.tag)
        ~ts:t0
        ~dur:(Tel.now Tel.default -. t0)
        ()
    in
    (match handler request with
    | resp ->
      finish ();
      resp
    | exception e ->
      finish ();
      raise e)

let expect_done c v = if F.finished c then v else malformed ()

(* ---- PKG process ---- *)

module Pkg_server = struct
  type t = {
    params : Params.t;
    pkg : Pkg.t;
    inboxes : (string, string list ref) Hashtbl.t; (* simulated provider, local *)
  }

  (* Same derivation path as [Deployment.create]: PKG [index]'s rng is
     ["pkg-<index>"] off the deployment root. *)
  let create ~config ~seed ~index =
    let params = Config.params config in
    let inboxes = Hashtbl.create 16 in
    let deliver ~to_ ~token =
      let box =
        match Hashtbl.find_opt inboxes to_ with
        | Some b -> b
        | None ->
          let b = ref [] in
          Hashtbl.replace inboxes to_ b;
          b
      in
      box := token :: !box
    in
    let rng = Drbg.derive (root_rng ~seed) (Printf.sprintf "pkg-%d" index) in
    { params; pkg = Pkg.create params ~rng ~send_email:deliver (); inboxes }

  let pkg t = t.pkg

  let handler t (request : Framing.frame) =
    let tag = request.Framing.tag in
    let c = F.cursor request.Framing.payload in
    let get f = match f c with Some v -> v | None -> malformed () in
    if tag = Proto.tag_pkg_info then begin
      let () = expect_done c () in
      Proto.respond tag (Ok (fun b -> F.str b (Bls.public_bytes t.params (Pkg.long_term_public t.pkg))))
    end
    else if tag = Proto.tag_pkg_register then begin
      let now = get F.get_u32 in
      let email = get F.get_str in
      let pk_bytes = get F.get_str in
      let () = expect_done c () in
      let pk = match Bls.public_of_bytes t.params pk_bytes with Some pk -> pk | None -> malformed () in
      match Pkg.register t.pkg ~now ~email ~pk with
      | Ok () -> Proto.respond tag (Ok (fun _ -> ()))
      | Error e -> Proto.respond tag (Error e)
    end
    else if tag = Proto.tag_pkg_inbox then begin
      let email = get F.get_str in
      let () = expect_done c () in
      let tokens = match Hashtbl.find_opt t.inboxes email with Some b -> !b | None -> [] in
      Proto.respond tag (Ok (fun b -> F.strs b tokens))
    end
    else if tag = Proto.tag_pkg_confirm then begin
      let now = get F.get_u32 in
      let email = get F.get_str in
      let token = get F.get_str in
      let () = expect_done c () in
      match Pkg.confirm t.pkg ~now ~email ~token with
      | Ok () -> Proto.respond tag (Ok (fun _ -> ()))
      | Error e -> Proto.respond tag (Error e)
    end
    else if tag = Proto.tag_pkg_begin_round then begin
      let round = get F.get_u32 in
      let () = expect_done c () in
      let commitment = Pkg.begin_round t.pkg ~round in
      Proto.respond tag (Ok (fun b -> F.str b commitment))
    end
    else if tag = Proto.tag_pkg_reveal then begin
      let round = get F.get_u32 in
      let () = expect_done c () in
      match Pkg.reveal_round t.pkg ~round with
      | Ok (mpk, opening) ->
        Proto.respond tag
          (Ok
             (fun b ->
               F.str b (Ibe.master_public_bytes t.params mpk);
               F.str b opening))
      | Error e -> Proto.respond tag (Error e)
    end
    else if tag = Proto.tag_pkg_extract then begin
      let now = get F.get_u32 in
      let round = get F.get_u32 in
      let email = get F.get_str in
      let sig_bytes = get F.get_str in
      let () = expect_done c () in
      let signature =
        match Bls.signature_of_bytes t.params sig_bytes with Some s -> s | None -> malformed ()
      in
      match Pkg.extract t.pkg ~now ~round ~email ~signature with
      | Ok (ik, att) ->
        Proto.respond tag
          (Ok
             (fun b ->
               F.str b (Ibe.identity_key_bytes t.params ik);
               F.str b (Bls.signature_bytes t.params att)))
      | Error e -> Proto.respond tag (Error e)
    end
    else if tag = Proto.tag_pkg_end_round then begin
      let round = get F.get_u32 in
      let () = expect_done c () in
      Pkg.end_round t.pkg ~round;
      Proto.respond tag (Ok (fun _ -> ()))
    end
    else failwith (Printf.sprintf "unknown PKG request tag 0x%02x" tag)

  let handler_traced t = traced (handler t)
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

  (* Chain position [position]'s servers derive exactly like
     [Deployment.create] → [Chain.create]: ["af-chain"]/["dial-chain"] off
     the root, then ["mix-server-<position>"]. *)
  let create ~config ~seed ~position =
    let params = Config.params config in
    let chain_length = config.Config.chain_length in
    if position < 0 || position >= chain_length then
      invalid_arg "Mixer_server.create: position out of range";
    let root = root_rng ~seed in
    let server_of chain_label =
      Server.create params
        ~rng:(Drbg.derive (Drbg.derive root chain_label) (Printf.sprintf "mix-server-%d" position))
        ~position ~chain_length
    in
    {
      params;
      position;
      chain_length;
      af = server_of "af-chain";
      dial = server_of "dial-chain";
      noise_rng = Drbg.derive root (Printf.sprintf "net-noise-%d" position);
    }

  let server t = function Proto.Af -> t.af | Proto.Dial -> t.dial

  let handler t (request : Framing.frame) =
    let tag = request.Framing.tag in
    let c = F.cursor request.Framing.payload in
    let get f = match f c with Some v -> v | None -> malformed () in
    let get_chain () =
      match Proto.chain_of_byte (get F.get_u8) with Some ch -> ch | None -> malformed ()
    in
    if tag = Proto.tag_mix_info then begin
      let () = expect_done c () in
      Proto.respond tag
        (Ok
           (fun b ->
             F.u32 b t.position;
             F.u32 b t.chain_length))
    end
    else if tag = Proto.tag_mix_new_round then begin
      let ch = get_chain () in
      let () = expect_done c () in
      let pk = Server.new_round (server t ch) in
      Proto.respond tag (Ok (fun b -> F.str b (Dh.public_bytes t.params pk)))
    end
    else if tag = Proto.tag_mix_process then begin
      let ch = get_chain () in
      let pk_bytes = get F.get_strs in
      let noise_mu = get F.get_f64 in
      let laplace_b = get F.get_f64 in
      let num_mailboxes = get F.get_u32 in
      let mpk_bytes = get F.get_str in
      let batch = Array.of_list (get F.get_strs) in
      let () = expect_done c () in
      let downstream_pks =
        List.map
          (fun s ->
            match Dh.public_of_bytes t.params s with Some pk -> pk | None -> malformed ())
          pk_bytes
      in
      let mpk_agg =
        if mpk_bytes = "" then None
        else
          match Ibe.master_public_of_bytes t.params mpk_bytes with
          | Some mpk -> Some mpk
          | None -> malformed ()
      in
      let out, noise =
        Server.process (server t ch) ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes
          ~noise_body:
            (Wire.noise_body t.params t.noise_rng
               (match ch with Proto.Af -> `AddFriend | Proto.Dial -> `Dialing)
               ~mpk_agg)
          batch
      in
      Proto.respond tag
        (Ok
           (fun b ->
             F.u32 b noise;
             F.strs b (Array.to_list out)))
    end
    else if tag = Proto.tag_mix_end_round then begin
      let ch = get_chain () in
      let () = expect_done c () in
      Server.end_round (server t ch);
      Proto.respond tag (Ok (fun _ -> ()))
    end
    else if tag = Proto.tag_mix_ping then begin
      let () = expect_done c () in
      Proto.respond tag (Ok (fun _ -> ()))
    end
    else failwith (Printf.sprintf "unknown mixer request tag 0x%02x" tag)

  let handler_traced t = traced (handler t)
end
