module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve
module Ibe = Alpenhorn_ibe.Ibe
module Bls = Alpenhorn_bls.Bls
module Dh = Alpenhorn_dh.Dh
module Pkg = Alpenhorn_pkg.Pkg
module Keywheel = Alpenhorn_keywheel.Keywheel
module Bloom = Alpenhorn_bloom.Bloom
module Onion = Alpenhorn_mixnet.Onion
module Payload = Alpenhorn_mixnet.Payload
module Mailbox = Alpenhorn_mixnet.Mailbox
module Tel = Alpenhorn_telemetry.Telemetry
module Trace = Alpenhorn_telemetry.Trace
module Pairing = Alpenhorn_pairing.Pairing
module Parallel = Alpenhorn_parallel.Parallel

(* Aggregated over all client instances in the process — the evaluation
   (§8.1) cares about total scan attempts vs hits, not per-client splits. *)
let m_keywheel_advances = Tel.Counter.v Tel.default "client.keywheel_advances"
let m_scan_attempts = Tel.Counter.v Tel.default "client.scan_attempts"
let m_scan_hits = Tel.Counter.v Tel.default "client.scan_hits"
let m_dial_tokens_checked = Tel.Counter.v Tel.default "client.dial_tokens_checked"
let m_dial_hits = Tel.Counter.v Tel.default "client.dial_hits"

type callbacks = {
  new_friend : email:string -> key:Bls.public -> bool;
  confirmed_friend : email:string -> unit;
  incoming_call : email:string -> intent:int -> session_key:string -> unit;
  call_placed : email:string -> intent:int -> session_key:string -> unit;
}

let null_callbacks =
  {
    new_friend = (fun ~email:_ ~key:_ -> true);
    confirmed_friend = (fun ~email:_ -> ());
    incoming_call = (fun ~email:_ ~intent:_ ~session_key:_ -> ());
    call_placed = (fun ~email:_ ~intent:_ ~session_key:_ -> ());
  }

(* A friend request we initiated and whose confirmation we await. The DH
   secret is generated when the request actually goes out. *)
type outgoing = {
  mutable dh_secret : Dh.secret option;
  mutable proposed_round : int;
  expected_key : Bls.public option;
}

(* A confirmation we owe to a friend whose request we accepted. The keywheel
   entry already exists; we must send them the matching DH public half. *)
type confirmation = { peer : string; dh_public : Dh.public; entry_round : int }

type t = {
  config : Config.t;
  params : Params.t;
  rng : Drbg.t;
  email : string;
  sk : Bls.secret;
  pk : Bls.public;
  pkg_pks : Bls.public list; (* long-term PKG keys, pre-distributed (§3.3) *)
  callbacks : callbacks;
  wheel : Keywheel.t;
  pinned : (string, Bls.public) Hashtbl.t; (* TOFU store *)
  outgoing : (string, outgoing) Hashtbl.t;
  mutable addfriend_queue : string list;
  mutable confirm_queue : confirmation list;
  mutable call_queue : (string * int) list;
}

type af_round = {
  af_round_num : int;
  mutable identity_key : Ibe.identity_key option; (* None once erased (§4.4) *)
  pkg_sigs : Bls.signature;
}

let create ~config ~rng ~email ~pkg_public_keys ~callbacks =
  if String.length email > Wire.max_email_length then invalid_arg "Client.create: email too long";
  let params = Config.params config in
  let sk, pk = Bls.keygen params (Drbg.derive rng "longterm") in
  {
    config;
    params;
    rng;
    email;
    sk;
    pk;
    pkg_pks = pkg_public_keys;
    callbacks;
    wheel = Keywheel.create ~owner:email;
    pinned = Hashtbl.create 64;
    outgoing = Hashtbl.create 8;
    addfriend_queue = [];
    confirm_queue = [];
    call_queue = [];
  }

let email t = t.email
let signing_public t = t.pk
let keywheel t = t.wheel

let sign_extraction_request t ~round =
  Bls.sign t.params t.sk (Pkg.extraction_request_message ~email:t.email ~round)

let sign_deregister t = Bls.sign t.params t.sk ("deregister" ^ t.email)

(* ---- address book ---- *)

let add_friend t ?expected_key ~email () =
  if email = t.email then invalid_arg "Client.add_friend: cannot friend yourself";
  (* A repeat add is a retry (e.g. the first request was lost while the
     friend was offline): refresh the pending state and requeue, unless the
     original request is still waiting to go out. *)
  Hashtbl.replace t.outgoing email { dh_secret = None; proposed_round = 0; expected_key };
  if not (List.mem email t.addfriend_queue) then
    t.addfriend_queue <- t.addfriend_queue @ [ email ]

let call t ~email ~intent =
  if intent < 0 || intent >= t.config.Config.max_intents then invalid_arg "Client.call: intent";
  t.call_queue <- t.call_queue @ [ (email, intent) ]

let friends t = Keywheel.friends t.wheel
let is_friend t ~email = Keywheel.entry_round t.wheel ~email <> None

let remove_friend t ~email =
  Keywheel.remove_friend t.wheel ~email;
  Hashtbl.remove t.pinned email;
  Hashtbl.remove t.outgoing email

let pinned_key t ~email = Hashtbl.find_opt t.pinned email
let pending_add_friends t = List.length t.addfriend_queue + List.length t.confirm_queue

(* ---- round abort recovery (DESIGN.md §10) ---- *)

(* Building a submission consumes queue entries and stores fresh DH state in
   [outgoing]; if the round then aborts, the request never reached a mailbox
   and all of it must be replayed. A checkpoint captures exactly the state a
   submission mutates. The keywheel is deliberately excluded: an aborted
   round never reaches the scan step (its only mutation site besides
   [advance_to], which is idempotent). *)
type checkpoint = {
  cp_addfriend_queue : string list;
  cp_confirm_queue : confirmation list;
  cp_call_queue : (string * int) list;
  cp_outgoing : (string * outgoing) list;
}

let copy_outgoing (o : outgoing) =
  { dh_secret = o.dh_secret; proposed_round = o.proposed_round; expected_key = o.expected_key }

let checkpoint t =
  {
    cp_addfriend_queue = t.addfriend_queue;
    cp_confirm_queue = t.confirm_queue;
    cp_call_queue = t.call_queue;
    cp_outgoing = Hashtbl.fold (fun k v acc -> (k, copy_outgoing v) :: acc) t.outgoing [];
  }

let rollback t cp =
  t.addfriend_queue <- cp.cp_addfriend_queue;
  t.confirm_queue <- cp.cp_confirm_queue;
  t.call_queue <- cp.cp_call_queue;
  Hashtbl.reset t.outgoing;
  List.iter (fun (k, v) -> Hashtbl.replace t.outgoing k (copy_outgoing v)) cp.cp_outgoing

(* ---- add-friend rounds (Algorithm 1) ---- *)

(* Aggregate the identity keys and attestations PKGs [0 .. n_pkgs-1]
   answered ([answer j]), in order, stopping at the first error. *)
let aggregate_extractions t ~round ~n_pkgs answer =
  let rec collect j keys sigs =
    if j = n_pkgs then
      Ok
        {
          af_round_num = round;
          identity_key = Some (Ibe.aggregate_identity t.params keys);
          pkg_sigs = Bls.aggregate t.params sigs;
        }
    else begin
      match answer j with
      | Error e -> Error e
      | Ok (key, att) -> collect (j + 1) (key :: keys) (att :: sigs)
    end
  in
  collect 0 [] []

(* The transport seam: extraction as an abstract per-PKG call, so the same
   client code runs against in-process [Pkg.t] handles or a network-backed
   transport (Alpenhorn_remote speaks this through its framed RPC). *)
let begin_addfriend_round_with t ~round ~n_pkgs ~extract =
  let signature = sign_extraction_request t ~round in
  aggregate_extractions t ~round ~n_pkgs (fun j -> extract j ~email:t.email ~signature)

(* Batched variant for a whole deployment: one [extract_batch] call per
   PKG covers every client (in process, {!Pkg.extract_batch} fans the
   verify/extract/sign work across the domain pool), then each client's
   answers are aggregated exactly as in [begin_addfriend_round_with]. *)
let begin_addfriend_round_batch clients ~round ~n_pkgs ~extract_batch =
  let requests =
    Array.of_list (List.map (fun c -> (c.email, sign_extraction_request c ~round)) clients)
  in
  let per_pkg = Array.init n_pkgs (fun j -> extract_batch j requests) in
  List.mapi
    (fun i c -> (c, aggregate_extractions c ~round ~n_pkgs (fun j -> per_pkg.(j).(i))))
    clients

(* DialingRound for a fresh keywheel entry: safely ahead of the wheel's
   clock so both clients can still reach it (Fig 5). *)
let propose_dialing_round t = Keywheel.current_round t.wheel + 2

let build_request t af ~dialing_key ~dialing_round =
  let skeleton =
    {
      Wire.sender_email = t.email;
      sender_key = t.pk;
      sender_sig = Curve.infinity;
      pkg_sigs = af.pkg_sigs;
      dialing_key;
      dialing_round;
    }
  in
  { skeleton with Wire.sender_sig = Bls.sign t.params t.sk (Wire.sender_sig_message t.params skeleton) }

let cover_addfriend_payload t =
  Payload.encode ~mailbox:Payload.cover (Drbg.bytes t.rng (Wire.request_ciphertext_size t.params))

(* Offer a REAL (non-cover) submission to the sampler; the root
   [client.submit] span starts the message's causal trace. The context is
   returned out-of-band — the wire bytes are exactly those of the untraced
   path (tracing consumes no protocol randomness). *)
let trace_submit t tracer =
  match tracer with
  | None -> None
  | Some tr -> (
    match Trace.sample tr with
    | None -> None
    | Some ctx ->
      Trace.emit tr ctx
        ~labels:[ ("client", t.email) ]
        ~name:"client.submit" ~ts:(Tel.now Tel.default) ~dur:0.0 ();
      Some ctx)

let addfriend_submission_traced t af ?tracer ~mpk_agg ~num_mailboxes ~server_pks () =
  let real =
    (* Confirmations first: a friend is waiting on them. *)
    match t.confirm_queue with
    | c :: rest ->
      t.confirm_queue <- rest;
      Some (c.peer, c.dh_public, c.entry_round)
    | [] ->
      (match t.addfriend_queue with
       | [] -> None
       | peer :: rest ->
         t.addfriend_queue <- rest;
         let dh_secret, dh_public = Dh.keygen t.params t.rng in
         let proposed = propose_dialing_round t in
         (match Hashtbl.find_opt t.outgoing peer with
          | Some o ->
            o.dh_secret <- Some dh_secret;
            o.proposed_round <- proposed
          | None ->
            Hashtbl.replace t.outgoing peer
              { dh_secret = Some dh_secret; proposed_round = proposed; expected_key = None });
         Some (peer, dh_public, proposed))
  in
  let payload, ctx =
    match real with
    | None -> (cover_addfriend_payload t, None)
    | Some (peer, dialing_key, dialing_round) ->
      let req = build_request t af ~dialing_key ~dialing_round in
      let ctxt = Ibe.encrypt t.params t.rng mpk_agg ~id:peer (Wire.encode_request t.params req) in
      ( Payload.encode ~mailbox:(Mailbox.mailbox_of_identity peer ~num_mailboxes) ctxt,
        trace_submit t tracer )
  in
  (Onion.wrap t.params t.rng ~server_pks payload, ctx)

let addfriend_submission t af ~mpk_agg ~num_mailboxes ~server_pks =
  fst (addfriend_submission_traced t af ~mpk_agg ~num_mailboxes ~server_pks ())

type af_event =
  | Friend_request_accepted of string
  | Friend_request_rejected of string
  | Friend_request_key_mismatch of string
  | Friend_confirmed of string

let verify_request t ~round (r : Wire.friend_request) =
  let pk_bytes = Bls.public_bytes t.params r.sender_key in
  let att = Pkg.attestation_message ~email:r.sender_email ~pk_bytes ~round in
  let agg = Bls.aggregate_public t.params t.pkg_pks in
  (* Batch the PKG multisignature and the sender signature under one shared
     final exponentiation; only a failing request pays for the individual
     re-verifies that name which signature was bad. *)
  if
    Bls.verify_batch t.params
      [| (agg, att, r.pkg_sigs); (r.sender_key, Wire.sender_sig_message t.params r, r.sender_sig) |]
  then Ok ()
  else if not (Bls.verify t.params agg att r.pkg_sigs) then Error `Bad_pkg_sigs
  else Error `Bad_sender_sig

(* TOFU plus optional out-of-band expectation (§3.2). *)
let key_acceptable t ~peer ~key ~expected =
  let matches_pin =
    match Hashtbl.find_opt t.pinned peer with None -> true | Some pinned -> Curve.equal pinned key
  in
  let matches_expected =
    match expected with None -> true | Some e -> Curve.equal e key
  in
  matches_pin && matches_expected

let process_request t (r : Wire.friend_request) =
  let peer = r.sender_email in
  match Hashtbl.find_opt t.outgoing peer with
  | Some ({ dh_secret = Some dh_secret; _ } as o) ->
    (* Confirmation of a request we sent (or a simultaneous add). *)
    if not (key_acceptable t ~peer ~key:r.sender_key ~expected:o.expected_key) then
      Some (Friend_request_key_mismatch peer)
    else begin
      let secret = Dh.shared_secret t.params dh_secret r.dialing_key in
      (* Symmetric round rule so simultaneous adds also agree: both sides
         take the max of what they sent and what they received. *)
      let entry_round = Stdlib.max o.proposed_round r.dialing_round in
      Keywheel.add_friend t.wheel ~email:peer ~secret ~round:entry_round;
      Hashtbl.replace t.pinned peer r.sender_key;
      Hashtbl.remove t.outgoing peer;
      t.callbacks.confirmed_friend ~email:peer;
      Some (Friend_confirmed peer)
    end
  | Some { dh_secret = None; _ } | None ->
    (* A fresh request from someone new (or one that raced ahead of our own
       queued-but-unsent request; treat it as incoming). *)
    if not (key_acceptable t ~peer ~key:r.sender_key ~expected:None) then
      Some (Friend_request_key_mismatch peer)
    else if not (t.callbacks.new_friend ~email:peer ~key:r.sender_key) then
      Some (Friend_request_rejected peer)
    else begin
      let dh_secret, dh_public = Dh.keygen t.params t.rng in
      let entry_round = Stdlib.max r.dialing_round (propose_dialing_round t) in
      let secret = Dh.shared_secret t.params dh_secret r.dialing_key in
      Keywheel.add_friend t.wheel ~email:peer ~secret ~round:entry_round;
      Hashtbl.replace t.pinned peer r.sender_key;
      Hashtbl.remove t.outgoing peer;
      t.addfriend_queue <- List.filter (fun e -> e <> peer) t.addfriend_queue;
      t.confirm_queue <- t.confirm_queue @ [ { peer; dh_public; entry_round } ];
      Some (Friend_request_accepted peer)
    end

(* Ciphertexts per batched trial decryption: enough that a batch shares
   its inversions over many pairings, few enough that the chunks spread
   over the domain pool (as Server's unwrap chunks do). *)
let scan_chunk = 256

let ceil_div a b = (a + b - 1) / b

let scan_addfriend_mailbox t af ciphertexts =
  let identity_key =
    match af.identity_key with
    | None -> invalid_arg "Client.scan_addfriend_mailbox: round already consumed"
    | Some k -> k
  in
  let events =
    Tel.Span.with_ Tel.default "client.scan_addfriend" (fun () ->
        Tel.Counter.add m_scan_attempts (List.length ciphertexts);
        (* Trial decryption is the expensive, randomness-free part of the
           scan: prepare the key once, then fan batches of decryptions out
           across the domain pool, which only reads the prepared table. A
           batch decodes each plaintext before its Fujisaki-Okamoto check,
           so someone else's request or noise (§3.1 step 6) stops at the
           decode. The hits are then processed sequentially, sorted by
           plaintext bytes: [process_request] draws DH keys from the
           client's DRBG, so mailbox order — the mixnet's shuffle — would
           otherwise decide who is confirmed first and every later session
           key. A copy of a hit (a mixer may duplicate onions) is processed
           once. *)
        let pool = Parallel.get () in
        if Parallel.size pool > 1 then Pairing.warmup t.params;
        let all = Array.of_list ciphertexts in
        let n = Array.length all in
        let size = Int.max 1 (Int.min scan_chunk (ceil_div n (Parallel.size pool))) in
        let decode = Wire.decode_request t.params in
        let hits =
          Ibe.with_prepared_key t.params identity_key (fun key ->
              List.init (ceil_div n size) (fun c ->
                  Array.to_list (Array.sub all (c * size) (Int.min size (n - (c * size)))))
              |> Parallel.map_list pool (Ibe.decrypt_batch t.params key ~decode)
              |> List.concat)
        in
        List.filter_map Fun.id hits
        |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
        |> List.filter_map (fun (_, (r : Wire.friend_request)) ->
               Tel.Counter.inc m_scan_hits;
               if r.sender_email = t.email then None
               else begin
                 match verify_request t ~round:af.af_round_num r with
                 | Error _ -> None (* forged or damaged: drop silently *)
                 | Ok () -> process_request t r
               end))
  in
  af.identity_key <- None;
  (* erase the round identity key (§4.4) *)
  events

(* ---- dialing (§5) ---- *)

let dialing_round t = Keywheel.current_round t.wheel

let advance_dialing t ~round =
  let delta = round - Keywheel.current_round t.wheel in
  if delta > 0 then Tel.Counter.add m_keywheel_advances delta;
  Keywheel.advance_to t.wheel ~round

let cover_dialing_payload t =
  Payload.encode ~mailbox:Payload.cover (Drbg.bytes t.rng Wire.dial_token_size)

let dialing_submission_traced t ?tracer ~num_mailboxes ~server_pks () =
  (* First sendable call wins; calls whose keywheel entry is still in the
     future stay queued, calls to strangers are dropped. *)
  let rec pick kept = function
    | [] -> (None, List.rev kept)
    | (peer, intent) :: rest -> begin
      match Keywheel.dial_token t.wheel ~email:peer ~intent with
      | Some token -> (Some (peer, intent, token), List.rev_append kept rest)
      | None ->
        if Keywheel.entry_round t.wheel ~email:peer <> None then pick ((peer, intent) :: kept) rest
        else pick kept rest
    end
  in
  let chosen, remaining = pick [] t.call_queue in
  t.call_queue <- remaining;
  let payload, ctx =
    match chosen with
    | None -> (cover_dialing_payload t, None)
    | Some (peer, intent, token) ->
      (match Keywheel.session_key t.wheel ~email:peer with
       | Some sk -> t.callbacks.call_placed ~email:peer ~intent ~session_key:sk
       | None -> ());
      ( Payload.encode ~mailbox:(Mailbox.mailbox_of_identity peer ~num_mailboxes) token,
        trace_submit t tracer )
  in
  (Onion.wrap t.params t.rng ~server_pks payload, ctx)

let dialing_submission t ~num_mailboxes ~server_pks =
  fst (dialing_submission_traced t ~num_mailboxes ~server_pks ())

type dial_event = Incoming_call of { peer : string; intent : int; session_key : string }

let scan_dialing_mailbox t filter =
  let hits =
    Tel.Span.with_ Tel.default "client.scan_dialing" (fun () ->
        let expected = Keywheel.expected_tokens t.wheel ~max_intents:t.config.Config.max_intents in
        Tel.Counter.add m_dial_tokens_checked (List.length expected);
        expected
        |> List.filter_map (fun (peer, intent, token) ->
               if Bloom.mem filter token then begin
                 Tel.Counter.inc m_dial_hits;
                 Option.map
                   (fun sk -> Incoming_call { peer; intent; session_key = sk })
                   (Keywheel.session_key t.wheel ~email:peer)
               end
               else None))
  in
  List.iter
    (fun (Incoming_call { peer; intent; session_key }) ->
      t.callbacks.incoming_call ~email:peer ~intent ~session_key)
    hits;
  hits

(* §5.1: a client coming back online replays the archived filters of the
   rounds it missed — advancing the keywheel one round at a time and
   scanning where the server still holds the mailbox. Rounds already past
   the archive's retention yield [None]: the wheel still advances (forward
   secrecy wins over completeness) but those calls are lost. *)
let catch_up_dialing t ~through =
  List.concat_map
    (fun (round, filter) ->
      if round <= Keywheel.current_round t.wheel then []
      else begin
        advance_dialing t ~round;
        match filter with None -> [] | Some f -> scan_dialing_mailbox t f
      end)
    through

(* ---- backup and restore (§9) ---- *)

let export_backup t ~passphrase =
  let pinned = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.pinned [] |> List.sort compare in
  Persist.export_identity t.params ~passphrase ~email:t.email ~signing_secret:t.sk ~pinned

let create_from_backup ~config ~rng ~pkg_public_keys ~callbacks (b : Persist.identity_backup) =
  let t =
    create ~config ~rng ~email:b.Persist.email ~pkg_public_keys ~callbacks
  in
  let t = { t with sk = b.Persist.signing_secret;
                   pk = Bls.public_of_secret t.params b.Persist.signing_secret } in
  List.iter (fun (friend, key) -> Hashtbl.replace t.pinned friend key) b.Persist.pinned;
  t
