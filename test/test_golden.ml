(* Golden pin of the in-process deployment's results. A fixed scenario —
   4 clients, two friendships, two calls, 4 add-friend and 4 dialing rounds
   under a fault schedule (a stall past the round timeout, a mixer crash,
   a client offline) — is reduced to one SHA-256 over every stats field,
   every add-friend event, every call with its session key,
   the archived dialing filter of every client for every retained round,
   and the final logical clock. The digests were recorded once and are
   never edited: the in-process ≡ wire oracle compares two paths that share
   one implementation of the rounds, so only a pin like this one catches a
   change both share. *)

module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Faults = Alpenhorn_core.Faults
module Bloom = Alpenhorn_bloom.Bloom
module Sha256 = Alpenhorn_crypto.Sha256
module Util = Alpenhorn_crypto.Util

let emails = [ "alice@g"; "bob@g"; "carol@g"; "dave@g" ]

(* stall 700 s (past the 600 s timeout) on server 0 in round 1, crash
   server 1 in round 2, client 1 offline in round 2 — of both phases *)
let faults =
  Faults.of_list ~seed:"golden"
    [
      { Faults.round = 1; kind = Server_stall { server = 0; seconds = 700.0 } };
      { Faults.round = 2; kind = Server_crash { server = 1; attempts = 1 } };
      { Faults.round = 2; kind = Client_offline { client = 1; rounds = 1 } };
    ]

let af_event = function
  | Client.Friend_request_accepted e -> "accepted:" ^ e
  | Client.Friend_request_rejected e -> "rejected:" ^ e
  | Client.Friend_request_key_mismatch e -> "key-mismatch:" ^ e
  | Client.Friend_confirmed e -> "confirmed:" ^ e

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let digest ~dial_shards =
  let config = { Config.test with Config.dial_shards } in
  let d = Deployment.create ~config ~seed:"golden" in
  let clients =
    List.map (fun email -> Deployment.new_client d ~email ~callbacks:Client.null_callbacks) emails
  in
  List.iter
    (fun c ->
      match Deployment.register d c with
      | Ok () -> ()
      | Error e -> Alcotest.failf "register: %s" (Alpenhorn_pkg.Pkg.error_to_string e))
    clients;
  let c i = List.nth clients i in
  Deployment.set_faults d faults;
  Client.add_friend (c 0) ~email:"bob@g" ();
  Client.add_friend (c 2) ~email:"dave@g" ();
  let buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  for _ = 1 to 4 do
    let s = Deployment.run_addfriend_round d () in
    line "af %d attempts=%d in=%d noise=%d dropped=%d k=%d bytes=%s" s.Deployment.af_round
      s.Deployment.af_attempts s.Deployment.requests_in s.Deployment.noise_added
      s.Deployment.dropped s.Deployment.num_mailboxes (ints s.Deployment.mailbox_bytes);
    List.iter (fun (who, ev) -> line "  %s <- %s" who (af_event ev)) s.Deployment.events
  done;
  Client.call (c 0) ~email:"bob@g" ~intent:1;
  Client.call (c 3) ~email:"carol@g" ~intent:2;
  for _ = 1 to 4 do
    let s = Deployment.run_dialing_round d () in
    line "dial %d attempts=%d in=%d noise=%d dropped=%d k=%d bytes=%s" s.Deployment.dial_round
      s.Deployment.dial_attempts s.Deployment.tokens_in s.Deployment.dial_noise_added
      s.Deployment.dial_dropped s.Deployment.dial_num_mailboxes (ints s.Deployment.filter_bytes);
    List.iter
      (fun (who, Client.Incoming_call { peer; intent; session_key }) ->
        line "  %s <- call:%s:%d:%s" who peer intent (Util.to_hex session_key))
      s.Deployment.calls
  done;
  for round = 1 to Deployment.dialing_round_number d do
    List.iter
      (fun email ->
        line "archive %d %s %s" round email
          (match Deployment.archived_filter d ~round ~email with
          | None -> "none"
          | Some f -> Util.to_hex (Sha256.digest (Bloom.to_bytes f))))
      emails
  done;
  line "now %d" (Deployment.now d);
  (Util.to_hex (Sha256.digest (Buffer.contents buf)), Buffer.contents buf)

let pin ~dial_shards expected =
  Alcotest.test_case (Printf.sprintf "in-process results pinned (dial_shards %d)" dial_shards) `Quick
    (fun () ->
      let got, transcript = digest ~dial_shards in
      if got <> expected then print_string transcript;
      Alcotest.(check string) "digest" expected got)

let suite =
  [
    pin ~dial_shards:0 "80fb8a123d915d91b9043fb88cc2e33d282cea82c80512fca4c699707594b16c";
    pin ~dial_shards:2 "a020e9cae7db264b194de6a5ab97caeebe3b9abf8597520a477ff33ff352796e";
  ]
