(* Every wire format under one property check (a quick slice of the
   @fuzz alias), hostile requests to both RPC servers, and the decoders
   the canonical property caught accepting a second encoding. *)

module Codec = Alpenhorn_codec.Codec
module Formats = Alpenhorn_formats.Formats
module Framing = Alpenhorn_net.Framing
module Rpc = Alpenhorn_net.Rpc
module Proto = Alpenhorn_remote.Proto
module Servers = Alpenhorn_remote.Servers
module Config = Alpenhorn_core.Config
module Persist = Alpenhorn_core.Persist
module Payload = Alpenhorn_mixnet.Payload
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve
module Bls = Alpenhorn_bls.Bls
module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Util = Alpenhorn_crypto.Util

(* @fuzz runs 3 000 mutants per format; keep it at least 100x this *)
let runtest_mutants = 30

let registry_tests =
  List.map
    (fun e ->
      Alcotest.test_case (Formats.name e) `Quick (fun () ->
          match Formats.check ~seed:"runtest" ~mutants:runtest_mutants e with
          | Ok () -> ()
          | Error msg -> Alcotest.fail msg))
    (Formats.entries ())

(* ---------- hostile requests ---------- *)

let params = Params.test ()
let point_size = Curve.point_bytes params.Params.fp
let bad_point = String.make point_size '\xee'

let pk =
  let _, pk = Bls.keygen params (Drbg.create ~seed:"hostile") in
  pk

let req (rpc : (_, _) Proto.rpc) q = (rpc.Proto.tag, Codec.encode rpc.Proto.req q)

(* one valid request per operation; none is ever sent as is *)
let pkg_requests =
  Proto.Op.
    [
      req (pkg_info params) ();
      req (pkg_register params) (7, "alice@x", pk);
      req pkg_inbox "alice@x";
      req pkg_confirm (7, "alice@x", "token");
      req pkg_begin_round 3;
      req (pkg_reveal params) 3;
      req (pkg_extract params) (7, 3, "alice@x", pk);
      req pkg_end_round 3;
    ]

let mix_process_raw (chain, pks, mpk) =
  Codec.(encode (pair (tup4 u8 (list str) f64 f64) (tup3 u32 str (array str))))
    ((chain, pks, 1.0, 0.0), (4, mpk, [| "onion" |]))

let mix_requests =
  Proto.Op.
    [
      req mix_info ();
      req (mix_new_round params) Proto.Dial;
      (Proto.Op.(mix_process params).Proto.tag, mix_process_raw (0, [ Curve.to_bytes params.fp pk ], ""));
      req mix_end_round Proto.Af;
      req mix_ping ();
    ]

let with_u32 v s = Util.be32 v ^ String.sub s 4 (String.length s - 4)

(* Payloads that must not decode: every truncation and a trailing byte of
   each valid request, plus the specific corruptions below. *)
let undecodable requests specific =
  List.concat_map
    (fun (tag, s) ->
      ((tag, s ^ "\x00") :: List.init (String.length s) (fun n -> (tag, String.sub s 0 n))))
    requests
  @ specific

let pkg_hostile =
  let tag (rpc : (_, _) Proto.rpc) = rpc.Proto.tag in
  let u32_first (t, s) = [ (t, with_u32 0x4000_0000 s); (t, with_u32 0xffff_ffff s) ] in
  undecodable pkg_requests
    (Proto.Op.
       [
         (tag (pkg_register params), Codec.(encode (tup3 u32 str str)) (7, "alice@x", bad_point));
         (tag (pkg_extract params), Codec.(encode (tup4 u32 u32 str str)) (7, 3, "alice@x", bad_point));
       ]
    @ List.concat_map u32_first (List.filter (fun (_, s) -> String.length s >= 4) (List.tl pkg_requests))
    )

let mix_hostile =
  let process = Proto.Op.(mix_process params).Proto.tag in
  let pk_bytes = Curve.to_bytes params.fp pk in
  undecodable mix_requests
    [
      (process, mix_process_raw (0, [ bad_point ], ""));
      (process, mix_process_raw (0, [ pk_bytes ], bad_point));
      (process, mix_process_raw (2, [ pk_bytes ], ""));
      (* num_mailboxes at 2^30 *)
      ( process,
        Codec.(encode (pair (tup4 u8 (list str) f64 f64) (fixed 4)))
          ((1, [], 1.0, 0.0), "\x40\x00\x00\x00")
        ^ Codec.(encode (pair str (array str))) ("", [||]) );
      (Proto.Op.(mix_new_round params).Proto.tag, "\x02");
      (Proto.Op.mix_end_round.Proto.tag, "\xff");
    ]

(* tags no operation uses, and a trace envelope tag arriving bare *)
let stray_tags = [ 0x00; 0x0f; 0x18; 0x1f; 0x25; 0x7f; Framing.trace_tag; Rpc.error_tag ]

let answers_error handler (tag, payload) =
  match handler { Framing.tag; payload } with
  | (resp : Framing.frame) ->
    if resp.Framing.tag <> Rpc.error_tag then
      Alcotest.failf "tag 0x%02x payload %s: answered tag 0x%02x, not the error tag" tag
        (Util.to_hex payload) resp.Framing.tag
  | exception e ->
    Alcotest.failf "tag 0x%02x payload %s raised %s" tag (Util.to_hex payload) (Printexc.to_string e)

let hostile_tests =
  let config = { Config.test with Config.n_pkgs = 1 } and seed = "hostile" in
  [
    Alcotest.test_case "PKG server answers undecodable requests with the error tag" `Quick (fun () ->
        let handler = Servers.Pkg_server.handler (Servers.Pkg_server.create ~config ~seed ~index:0) in
        List.iter (answers_error handler) pkg_hostile;
        List.iter (fun tag -> answers_error handler (tag, "")) stray_tags;
        List.iter (fun tag -> answers_error handler (tag, "\x00\x00\x00\x01")) stray_tags);
    Alcotest.test_case "a round number of 2^32 - 1 is not a round" `Quick (fun () ->
        let handler = Servers.Pkg_server.handler (Servers.Pkg_server.create ~config ~seed ~index:0) in
        answers_error handler (Proto.Op.pkg_begin_round.Proto.tag, "\xff\xff\xff\xff");
        (* and the round trip still works for a real round *)
        let ok = handler { Framing.tag = Proto.Op.pkg_begin_round.Proto.tag; payload = Util.be32 1 } in
        Alcotest.(check int) "round 1 answered" Proto.Op.pkg_begin_round.Proto.tag ok.Framing.tag);
    Alcotest.test_case "mixer server answers undecodable requests with the error tag" `Quick
      (fun () ->
        let t = Servers.Mixer_server.create ~config ~seed ~position:0 in
        let handler = Servers.Mixer_server.handler t in
        List.iter (answers_error handler) mix_hostile;
        List.iter (fun tag -> answers_error handler (tag, "")) stray_tags;
        (* traced, the rejection still answers and still emits its span *)
        answers_error
          (Servers.Mixer_server.handler_traced t ~trace:(Some [ ("trace", "1"); ("span", "2") ]))
          (List.hd mix_hostile));
  ]

(* ---------- second encodings the canonical property caught ---------- *)

let str s = Util.be32 (String.length s) ^ s

let canonical_tests =
  [
    Alcotest.test_case "backup with a zero-padded signing secret is rejected" `Quick (fun () ->
        let sk, _ = Bls.keygen params (Drbg.create ~seed:"padded-secret") in
        let blob secret = str "ALPENHORN-BACKUP-1" ^ str "alice@x" ^ str secret ^ Util.be32 0 in
        let minimal = Bigint.to_bytes_be sk in
        Alcotest.(check string) "the minimal form is what export writes"
          (Persist.encode_plain params ~email:"alice@x" ~signing_secret:sk ~pinned:[])
          (blob minimal);
        Alcotest.(check bool) "minimal form restores" true (Persist.decode_plain params (blob minimal) <> None);
        Alcotest.(check bool) "a leading zero byte is a second encoding" true
          (Persist.decode_plain params (blob ("\x00" ^ minimal)) = None));
    Alcotest.test_case "payload mailbox ids above cover are rejected" `Quick (fun () ->
        List.iter
          (fun id ->
            let p = Util.be32 id ^ "body" in
            Alcotest.(check bool) (Printf.sprintf "decode 0x%x" id) true (Payload.decode p = None);
            Alcotest.(check bool) (Printf.sprintf "mailbox 0x%x" id) true (Payload.mailbox p = -1))
          [ Payload.cover + 1; 0x4000_0000; 0xffff_ffff ];
        Alcotest.(check int) "cover itself" Payload.cover
          (Payload.mailbox (Payload.encode ~mailbox:Payload.cover "")));
  ]

let suite = registry_tests @ hostile_tests @ canonical_tests
