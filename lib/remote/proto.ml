(* The Alpenhorn RPC vocabulary (DESIGN.md §13): one description per
   operation — tag, span name, request codec, response codec — read both
   by the blocking client wrappers and by the servers' table-driven
   dispatch, so every message layout is written once.

   Conventions:

   - a response frame reuses its request's tag; [Rpc.error_tag] (0xff)
     answers a request that does not decode, an unknown tag, or a
     handler crash;
   - every response payload is a [Codec.result]: status 0 and the body,
     or status 1 and a {!Pkg.error} (the app-level failure of PKG ops);
   - group elements (BLS keys/signatures, IBE keys, DH round keys) ride
     as length-prefixed canonical bytes and are decoded through the
     curve's own [of_bytes] — a peer is never trusted to send well-formed
     points;
   - [now] is explicit in the requests that consult the clock
     (registration lockout, liveness), because rounds run on the
     orchestrator's logical clock, not the server's wall clock. *)

module Codec = Alpenhorn_codec.Codec
module Framing = Alpenhorn_net.Framing
module Rpc = Alpenhorn_net.Rpc
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve
module Bls = Alpenhorn_bls.Bls
module Ibe = Alpenhorn_ibe.Ibe
module Dh = Alpenhorn_dh.Dh
module Pkg = Alpenhorn_pkg.Pkg
module Tel = Alpenhorn_telemetry.Telemetry

type chain = Af | Dial

type ('q, 'r) rpc = {
  tag : int;
  name : string;
  req : 'q Codec.t;
  resp : ('r, Pkg.error) result Codec.t;
}

let pkg_error =
  Codec.(
    union
      [
        const 0 Pkg.Unknown_account;
        const 1 Pkg.Not_confirmed;
        const 2 Pkg.Already_registered;
        const 3 Pkg.Bad_token;
        const 4 Pkg.Bad_signature;
        case 5 u32 (fun s -> Pkg.Locked_out s) (function Pkg.Locked_out s -> Some s | _ -> None);
        const 6 Pkg.Wrong_round;
        const 7 Pkg.Not_revealed;
        const 8 Pkg.Unknown_provider;
      ])

let rpc tag name req resp = { tag; name; req; resp = Codec.result resp pkg_error }

(* A group element as length-prefixed canonical bytes. The prefix is
   always the point size, so the format has one size and encoding never
   serializes a point twice. *)
let point (p : Params.t) of_bytes to_bytes =
  let n = Curve.point_bytes p.fp in
  Codec.(
    map
      (fun (len, s) -> if len = n then of_bytes p s else None)
      (fun x -> (n, to_bytes p x))
      (pair u32 (fixed n)))

let chain = Codec.(union [ const 0 Af; const 1 Dial ])

module Op = struct
  open Codec

  let bls_public p = point p Bls.public_of_bytes Bls.public_bytes
  let bls_signature p = point p Bls.signature_of_bytes Bls.signature_bytes
  let pkg_info = Params.derived @@ fun p -> rpc 0x10 "pkg.info" unit (bls_public p)

  let pkg_register =
    Params.derived @@ fun p -> rpc 0x11 "pkg.register" (tup3 u32 str (bls_public p)) unit

  let pkg_inbox = rpc 0x12 "pkg.inbox" str (list str)
  let pkg_confirm = rpc 0x13 "pkg.confirm" (tup3 u32 str str) unit
  let pkg_begin_round = rpc 0x14 "pkg.begin_round" u32 str

  let pkg_reveal =
    Params.derived @@ fun p ->
    rpc 0x15 "pkg.reveal" u32
      (pair (point p Ibe.master_public_of_bytes Ibe.master_public_bytes) str)

  let pkg_extract =
    Params.derived @@ fun p ->
    rpc 0x16 "pkg.extract"
      (tup4 u32 u32 str (bls_signature p))
      (pair (point p Ibe.identity_key_of_bytes Ibe.identity_key_bytes) (bls_signature p))

  let pkg_end_round = rpc 0x17 "pkg.end_round" u32 unit
  let mix_info = rpc 0x20 "mix.info" unit (pair u32 u32)

  let mix_new_round =
    Params.derived @@ fun p ->
    rpc 0x21 "mix.new_round" chain (point p Dh.public_of_bytes Dh.public_bytes)

  (* the aggregate master key is empty when noise is not faithful *)
  let mpk_agg_of_bytes p = function
    | "" -> Some None
    | s -> Option.map Option.some (Ibe.master_public_of_bytes p s)

  let mix_process =
    Params.derived @@ fun p ->
    let mpk_agg =
      map (mpk_agg_of_bytes p) (function None -> "" | Some mpk -> Ibe.master_public_bytes p mpk) str
    in
    rpc 0x22 "mix.process"
      (pair
         (tup4 chain (list (point p Dh.public_of_bytes Dh.public_bytes)) f64 f64)
         (tup3 u32 mpk_agg (array str)))
      (pair u32 (array str))

  let mix_end_round = rpc 0x23 "mix.end_round" chain unit
  let mix_ping = rpc 0x24 "mix.ping" unit unit
end

(* ---- client side ---- *)

(* One RPC round trip. A [Pkg.error] status surfaces as [Ok (Error e)] so
   protocol failures stay distinct from transport ones. *)
let call conn rpc q =
  match Rpc.Client.call conn { Framing.tag = rpc.tag; payload = Codec.encode rpc.req q } with
  | Error _ as e -> e
  | Ok { Framing.tag; payload } ->
    if tag = Rpc.error_tag then Error ("server error: " ^ payload)
    else if tag <> rpc.tag then Error (Printf.sprintf "unexpected response tag 0x%02x" tag)
    else Option.to_result ~none:("malformed " ^ rpc.name ^ " response") (Codec.decode rpc.resp payload)

(* Unwrap ops that cannot fail at the protocol level: a [Pkg.error] from
   one of them is a peer bug, reported as a transport error. *)
let no_protocol_error = function
  | Error _ as e -> e
  | Ok (Ok v) -> Ok v
  | Ok (Error e) -> Error ("unexpected protocol error: " ^ Pkg.error_to_string e)

let pkg_info conn ~params = no_protocol_error (call conn (Op.pkg_info params) ())
let pkg_register conn ~params ~now ~email ~pk = call conn (Op.pkg_register params) (now, email, pk)
let pkg_inbox conn ~email = no_protocol_error (call conn Op.pkg_inbox email)
let pkg_confirm conn ~now ~email ~token = call conn Op.pkg_confirm (now, email, token)
let pkg_begin_round conn ~round = no_protocol_error (call conn Op.pkg_begin_round round)
let pkg_reveal conn ~params ~round = call conn (Op.pkg_reveal params) round

let pkg_extract conn ~params ~now ~round ~email ~signature =
  call conn (Op.pkg_extract params) (now, round, email, signature)

let pkg_end_round conn ~round = no_protocol_error (call conn Op.pkg_end_round round)
let mix_info conn = no_protocol_error (call conn Op.mix_info ())
let mix_new_round conn ~params ~chain = no_protocol_error (call conn (Op.mix_new_round params) chain)

let mix_process conn ~params ~chain ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes
    ~mpk_agg ~batch =
  match Op.mpk_agg_of_bytes params mpk_agg with
  | None -> Error "mix_process: mpk_agg is not a point"
  | Some mpk ->
    no_protocol_error
      (call conn (Op.mix_process params)
         ((chain, downstream_pks, noise_mu, laplace_b), (num_mailboxes, mpk, batch)))
    |> Result.map (fun (noise, out) -> (out, noise))

let mix_end_round conn ~chain = no_protocol_error (call conn Op.mix_end_round chain)
let mix_ping conn = no_protocol_error (call conn Op.mix_ping ())

(* ---- server side ---- *)

type handler = Handler : ('q, 'r) rpc * ('q -> ('r, Pkg.error) result) -> handler

(* Trace propagation (DESIGN.md §14): when the RPC envelope carried trace
   labels, the request is timed and one span, named by its operation, is
   emitted under those labels verbatim. Span ids are minted only by the
   orchestrator's tracer — a server never mints, it replays the carried
   identity — so spans emitted by every process of the fleet stitch into
   one timeline when the collector merges their snapshots. Emitted even
   when the handler raises: a failed protocol step still shows up in its
   trace. *)
let serve handlers =
  let table = Hashtbl.create 16 in
  List.iter (fun (Handler (rpc, _) as h) -> Hashtbl.replace table rpc.tag h) handlers;
  fun ~trace (request : Framing.frame) ->
    match Hashtbl.find_opt table request.Framing.tag with
    | None -> Rpc.error_frame (Printf.sprintf "unknown request tag 0x%02x" request.Framing.tag)
    | Some (Handler (rpc, f)) -> (
      let answer () =
        match Codec.decode rpc.req request.Framing.payload with
        | None -> Rpc.error_frame ("malformed " ^ rpc.name ^ " request")
        | Some q -> { Framing.tag = rpc.tag; payload = Codec.encode rpc.resp (f q) }
      in
      match trace with
      | None -> answer ()
      | Some labels ->
        let t0 = Tel.now Tel.default in
        Fun.protect
          ~finally:(fun () ->
            Tel.Span.emit Tel.default ~labels ~name:rpc.name ~ts:t0
              ~dur:(Tel.now Tel.default -. t0)
              ())
          answer)
