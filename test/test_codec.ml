(* Known-answer vectors for every wire format: SHA-256 digests of the bytes
   each encoder writes for fixed, seeded inputs. The RPC transcript is a
   one-PKG, three-mixer run over real sockets: two registrations, a
   repeated registration that the PKG refuses, two add-friend rounds and
   three dialing rounds. Any change to an encoding, however small, moves
   a digest here. *)

module Framing = Alpenhorn_net.Framing
module Rpc = Alpenhorn_net.Rpc
module Fleet = Alpenhorn_remote.Fleet
module Deployment = Alpenhorn_core.Deployment
module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Wire = Alpenhorn_core.Wire
module Persist = Alpenhorn_core.Persist
module Params = Alpenhorn_pairing.Params
module Bls = Alpenhorn_bls.Bls
module Blind = Alpenhorn_bls.Blind
module Dh = Alpenhorn_dh.Dh
module Bloom = Alpenhorn_bloom.Bloom
module Ratelimit = Alpenhorn_mixnet.Ratelimit
module Drbg = Alpenhorn_crypto.Drbg
module Sha256 = Alpenhorn_crypto.Sha256
module Util = Alpenhorn_crypto.Util

let hex s = Util.to_hex (Sha256.digest s)

(* ---------- the RPC transcript ---------- *)

(* Every frame a server's handler saw and answered, in order: the request
   and the response, each as [Framing.encode] writes it. *)
let recording handler log (req : Framing.frame) =
  let resp = handler req in
  log := Framing.encode resp :: Framing.encode req :: !log;
  resp

let transcript () =
  let config = { Config.test with Config.n_pkgs = 1 } and seed = "codec-kat" in
  let logs = Array.init (1 + config.Config.chain_length) (fun _ -> ref []) in
  (* "pkg-0" logs first, then "mixer-i" *)
  let wrap name handler =
    recording handler logs.(Scanf.sscanf name "%s@-%d" (fun role i -> if role = "pkg" then i else i + 1))
  in
  Fleet.domains ~wrap ~config ~seed (fun fleet ->
      let nd = Fleet.deployment fleet in
      let client email = Deployment.new_client nd ~email ~callbacks:Client.null_callbacks in
      let alice = client "alice@x" and bob = client "bob@x" in
      let registered c =
        match Deployment.register nd c with
        | Ok () -> ()
        | Error e -> Alcotest.failf "register: %s" (Alpenhorn_pkg.Pkg.error_to_string e)
      in
      registered alice;
      registered bob;
      (match Deployment.register nd alice with
      | Ok () -> Alcotest.fail "a repeated registration succeeded"
      | Error _ -> ());
      Client.add_friend alice ~email:"bob@x" ();
      ignore (Deployment.run_addfriend_round nd ());
      ignore (Deployment.run_addfriend_round nd ());
      Client.call alice ~email:"bob@x" ~intent:1;
      for _ = 1 to 3 do
        ignore (Deployment.run_dialing_round nd ())
      done;
      (* the one operation the round driver never sends *)
      List.iter
        (fun (s : Fleet.server) ->
          if String.starts_with ~prefix:"mixer-" s.name then
            match Rpc.Client.connect ~port:s.port () with
            | Error e -> Alcotest.failf "connect: %s" e
            | Ok c ->
              Fun.protect
                ~finally:(fun () -> Rpc.Client.close c)
                (fun () ->
                  match Alpenhorn_remote.Proto.mix_info c with
                  | Ok _ -> ()
                  | Error e -> Alcotest.failf "mix_info: %s" e))
        (Fleet.servers fleet));
  Array.map (fun log -> List.rev !log) logs

(* Per request tag: how many frames carried it (requests and their
   responses) and the digest of those frames in order. An error response
   is filed under its request's tag. *)
let by_tag frames =
  let tags = Hashtbl.create 16 in
  let rec go = function
    | req :: resp :: rest ->
      let tag = Char.code req.[4] in
      let b =
        match Hashtbl.find_opt tags tag with
        | Some b -> b
        | None ->
          let b = (ref 0, Buffer.create 1024) in
          Hashtbl.replace tags tag b;
          b
      in
      incr (fst b);
      Buffer.add_string (snd b) req;
      Buffer.add_string (snd b) resp;
      go rest
    | _ -> ()
  in
  go frames;
  Hashtbl.fold (fun tag (n, b) acc -> (tag, !n, hex (Buffer.contents b)) :: acc) tags []
  |> List.sort compare

let expected_transcript =
  [
    (* PKG *)
    [
      (0x10, 1, "c76c2a45332f0ed4eac9599ca7394d826a196d7e607849d05549c69d2e9f9c8f");
      (0x11, 3, "4d0db3f972fe2f629c148d8655167996758ecca9a609244949500f525bf97182");
      (0x12, 2, "f2571fe466aa4f93fc564bcb17442672fb25c8dfe822f7ee04a7bd3a1afabe3c");
      (0x13, 2, "0c1c8ab57256649c70b7fcff1979fc00cd2b4caa7dc42c49ac6e3ba74a536401");
      (0x14, 2, "7f3a9470d7134d4e5d5f1ae7dd80e4770e257e6eac9a3b16a67ba9ade455ebbf");
      (0x15, 2, "7863e5a6fe3d7354bf57cd3e66686d577f4d61dd8b29696643bc97dccce1c138");
      (0x16, 4, "4a6fa4a200d651094572abf654e38df23af80f56976faf8aa75e3119713f6dba");
      (0x17, 2, "3044ec9b312d3b183661c46d1b92b8370f398c3583f3d0576e021a7d342b4352");
    ];
    (* mixer 0 *)
    [
      (0x20, 1, "a7c04df3900bca804b48ec68ea5bee73b63fbc1649306d2fceeddecd9653de06");
      (0x21, 5, "2b5df60fb7c4141ac52562f29aee8e5f64134dacf6cbaf25b8cf4dfc4556c24c");
      (0x22, 5, "58dc02b11aa60c7df8704d28f518ebe17fc7c344e539c4162ba68edb24ce6569");
      (0x23, 5, "b7e9d4a62d406116c1339450def4a7c524e0e7a03bf38e7f0b663b65d7408400");
      (0x24, 5, "664498779f01a4739836f0b783f6ae9d257eb4044ad228d8657bf64abf9a2ab6");
    ];
    (* mixer 1 *)
    [
      (0x20, 1, "cafb4a5696c2fe7f8965bdd585da1fa5ae443d3471d533ecc4be0a13a949bd6e");
      (0x21, 5, "8bfd04c1a409d4eb8efa65677891a979e5041283dd9e62110045b433e67da93e");
      (0x22, 5, "045113686d6e9d16e9697c7625317d432b0b7813ed1ca6f76136173449b1bf0c");
      (0x23, 5, "b7e9d4a62d406116c1339450def4a7c524e0e7a03bf38e7f0b663b65d7408400");
      (0x24, 5, "664498779f01a4739836f0b783f6ae9d257eb4044ad228d8657bf64abf9a2ab6");
    ];
    (* mixer 2 *)
    [
      (0x20, 1, "83fd9c54a9c0bc882e965abd58d26572857ce2b0892fa8f8483de01505596a10");
      (0x21, 5, "3e8717f6b475b126b776c0e4b374566b5dbf7d700a03439057368539c6fcc71b");
      (0x22, 5, "499622f7527a35a692d9e6da5b59767350fd7b8307069ca15880eafe3fe5bfb1");
      (0x23, 5, "b7e9d4a62d406116c1339450def4a7c524e0e7a03bf38e7f0b663b65d7408400");
      (0x24, 5, "664498779f01a4739836f0b783f6ae9d257eb4044ad228d8657bf64abf9a2ab6");
    ];
  ]

let transcript_tests =
  [
    Alcotest.test_case "RPC frames of a fixed fleet run" `Quick (fun () ->
        let logs = transcript () in
        let got = Array.map by_tag logs in
        Array.iteri
          (fun i l ->
            Alcotest.(check (list (triple int int string)))
              (Printf.sprintf "server %d" i)
              (List.nth expected_transcript i) l)
          got;
        (* the transcript exercised the status envelope's error branch *)
        Alcotest.(check bool) "a Pkg.error response was sent" true
          (List.exists
             (fun f -> Char.code f.[4] = 0x11 && String.length f >= 7 && f.[5] = '\001')
             logs.(0)));
  ]

(* ---------- fixed-size and stored formats, on both curves ---------- *)

let on_curve name =
  let params = Params.of_named name in
  let rng = Drbg.create ~seed:("codec-kat-" ^ name) in
  let sk, pk = Bls.keygen params rng in
  let _, dh_pk = Dh.keygen params rng in
  let _, friend_pk = Bls.keygen params rng in
  let request =
    {
      Wire.sender_email = "alice@example.org";
      sender_key = pk;
      sender_sig = Bls.sign params sk "sender";
      pkg_sigs = Bls.sign params sk "pkgs";
      dialing_key = dh_pk;
      dialing_round = 77;
    }
  in
  let pinned = [ ("bob@x", friend_pk); ("carol@x", pk) ] in
  let blinded, r = Blind.blind params rng ~msg:"serial-kat-00000" in
  let token =
    {
      Ratelimit.serial = "serial-kat-00000";
      signature = Blind.unblind params pk ~signed:(Blind.sign_blinded params sk blinded) r;
    }
  in
  [
    ("Wire.encode_request", Wire.encode_request params request);
    ("Persist.encode_plain", Persist.encode_plain params ~email:"alice@x" ~signing_secret:sk ~pinned);
    ( "Persist.export_identity",
      Persist.export_identity params ~passphrase:"kat" ~email:"alice@x" ~signing_secret:sk ~pinned );
    ("Ratelimit.token_bytes", Ratelimit.token_bytes params token);
  ]

let bloom () =
  let f = Bloom.create ~expected_elements:40 in
  for i = 0 to 39 do
    Bloom.add f (Sha256.digest (string_of_int i))
  done;
  Bloom.to_bytes f

let traced_envelope () =
  Framing.encode_traced
    ~trace:[ ("trace", "17"); ("span", "42"); ("parent", ""); ("server", "mixer-1") ]
    { Framing.tag = 0x22; payload = String.init 300 (fun i -> Char.chr (i * 7 land 0xff)) }

let expected_formats =
  [
    ( "test",
      [
        ("Wire.encode_request", "027d4a852cf03f79e319a5595505eb3ef105dc0178edfd5cd0f343a3f4cf2b0d");
        ("Persist.encode_plain", "2e37c3d5f192c770b6d23c2100ca4270a02d644e83f66d9232eace1b27590beb");
        ("Persist.export_identity", "6fa0b43260c72c15a11f35a2e1bbc1eee3637346226b77c1276f22b49a0ba2c2");
        ("Ratelimit.token_bytes", "5be359a02fd07e139e457980e28535af0a13667bea8c3c5a0a1638c4071b9fa5");
      ] );
    ( "production",
      [
        ("Wire.encode_request", "0b85865037a55efd5966a3dae8d90c11539c85b694cd772c87a51210f527ac3b");
        ("Persist.encode_plain", "ab29f4c2dd4226e8b034a66ea2b9033230c309c94b5612143c12b8210edc4a8e");
        ("Persist.export_identity", "178d44dfec5fe8fdb76c013c823459aa36702bc98ea1378a36912f4073c94eee");
        ("Ratelimit.token_bytes", "91385f9f183236442d8a0683921bd26e7c88f8cf4f4c3c1560e5f9b1b1fc233e");
      ] );
  ]

let format_tests =
  [
    Alcotest.test_case "stored and fixed-size formats on both curves" `Quick (fun () ->
        let got = List.map (fun (name, _) -> List.map (fun (k, s) -> (k, hex s)) (on_curve name)) expected_formats in
        List.iter2
          (fun (name, want) l -> Alcotest.(check (list (pair string string))) name want l)
          expected_formats got);
    Alcotest.test_case "Bloom header and bits, traced envelope" `Quick (fun () ->
        Alcotest.(check string) "Bloom.to_bytes"
          "7e5124d5dd12143a7fb2892e60292b9b07502e273be1793c1973ef6da13238c7" (hex (bloom ()));
        Alcotest.(check string) "Framing.encode_traced"
          "ac026ba59ab615811073c727c5a37e024ba65b540264461020fd126ceb387785" (hex (traced_envelope ())));
  ]

let suite = transcript_tests @ format_tests
