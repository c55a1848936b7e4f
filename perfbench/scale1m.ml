(* scale-1m: the deployment's own sharded distribution at 10^6 clients,
   with no public-key crypto.

   Set-up plays the last mixnet server's output for one round pair: 5% of
   clients active, each addressing client i + 1, plus paper noise (4000
   add-friend and 25000 dialing messages per mailbox per server, three
   servers), as [Payload.encode]d final-hop payloads in shuffled order.
   Add-friend bodies are random bytes of the production curve's request
   size; dial tokens are 32 random bytes.

   Each measured round pair then runs, per phase, [Mailbox.distribute_sharded]
   into 5 shards, publishes every shard through a [Stream_writer] (dialing
   shards as [Bloom.to_bytes]), and has sampled clients check their shard:
   4096 dialing clients look up their expected token (or, if nobody dialed
   them, a fresh probe that must miss), 32 add-friend recipients find the
   request addressed to them among their shard's records. The library's
   [Scale.run] is not used: it re-implements this path and its round time
   includes token generation. *)

module Params = Alpenhorn_pairing.Params
module Bloom = Alpenhorn_bloom.Bloom
module Mailbox = Alpenhorn_mixnet.Mailbox
module Payload = Alpenhorn_mixnet.Payload
module Shard = Alpenhorn_mixnet.Shard
module Stream_writer = Alpenhorn_mixnet.Stream_writer
module Wire = Alpenhorn_core.Wire

let clients = 1_000_000
let active = clients / 20
(* Every mailbox receives the full per-mailbox noise and sharding needs a
   mailbox per shard, so the shard count sets the round size: 15 shards
   (one per 64k clients, Scale.run's default) make a 1.2M-token dialing
   round that runs 2.1-4.4 s on the reference host, too few rounds per run
   for a steady median; 5 shards (200k clients each) make 425k. *)
let shards = 5
let servers = 3
let dial_sample = 4096
let af_sample = 32
let token_bytes = Wire.dial_token_size
let email i = "u" ^ string_of_int i
let span = Spans.span

type phase = {
  shard : Shard.t;
  payloads : string array;
  expected : string array;  (** body sent to client i + 1 by active client i *)
}

type input = { af : phase; dial : phase; probes : string array }

(* Random bytes from the seeded (non-cryptographic) generator: the
   distribution path never looks inside a body, and at 1.4 million
   messages a fast generator keeps set-up short. *)
let random_bytes st n =
  let b = Bytes.create n in
  for i = 0 to (n / 8) - 1 do
    Bytes.set_int64_le b (8 * i) (Random.State.bits64 st)
  done;
  for i = n / 8 * 8 to n - 1 do
    Bytes.set b i (Char.chr (Random.State.int st 256))
  done;
  Bytes.unsafe_to_string b

(* One phase's final-hop payloads, shuffled as the last server's output
   is: [active] real messages addressed to client i + 1, [noise_mu *
   servers] noise messages per mailbox. *)
let make_phase st ~noise_mu ~body_bytes =
  let num_mailboxes =
    max shards
      (Mailbox.num_mailboxes_for ~expected_real:active ~noise_mu ~chain_length:servers)
  in
  let noise = int_of_float noise_mu * servers in
  let expected = Array.init active (fun _ -> random_bytes st body_bytes) in
  let payloads =
    Array.init
      (active + (noise * num_mailboxes))
      (fun i ->
        if i < active then
          Payload.encode
            ~mailbox:(Mailbox.mailbox_of_identity (email (i + 1)) ~num_mailboxes)
            expected.(i)
        else Payload.encode ~mailbox:((i - active) mod num_mailboxes) (random_bytes st body_bytes))
  in
  for i = Array.length payloads - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = payloads.(i) in
    payloads.(i) <- payloads.(j);
    payloads.(j) <- x
  done;
  { shard = Shard.create ~num_shards:shards ~num_mailboxes; payloads; expected }

let set_up ~seed =
  let st = Random.State.make [| Hashtbl.hash ("scale-1m" ^ seed) |] in
  let af =
    make_phase st ~noise_mu:4000.0
      ~body_bytes:(Wire.request_ciphertext_size (Params.production ()))
  in
  let dial = make_phase st ~noise_mu:25000.0 ~body_bytes:token_bytes in
  { af; dial; probes = Array.init dial_sample (fun _ -> random_bytes st token_bytes) }

let check (c : Scenario.tally) ok =
  c.attempted <- c.attempted + 1;
  if not ok then c.failed <- c.failed + 1

let publish blobs =
  let sink, _ = Stream_writer.counting_sink () in
  let w = Stream_writer.create sink in
  Array.iter (Stream_writer.write w) blobs;
  Stream_writer.flush w

(* Add-friend phase: sharded records, published, and sampled recipients
   find their request among their shard's records. *)
let addfriend tr c inp =
  let p = inp.af in
  let content, _ =
    span tr "mailbox.distribute_sharded" (fun () ->
        Mailbox.distribute_sharded ~shard:p.shard ~mode:`AddFriend p.payloads)
  in
  let blobs = Mailbox.plain_shards_exn content in
  span tr "mailbox.publish" (fun () -> publish blobs);
  span tr "mailbox.scan" (fun () ->
      for k = 0 to af_sample - 1 do
        let sender = k * (active - 1) / (af_sample - 1) in
        let recipient = email (sender + 1) in
        let num_mailboxes = Shard.num_mailboxes p.shard in
        let want =
          Payload.encode
            ~mailbox:(Mailbox.mailbox_of_identity recipient ~num_mailboxes)
            p.expected.(sender)
        in
        let found = ref false in
        let valid =
          Stream_writer.iter_records blobs.(Shard.of_identity p.shard recipient) (fun r ->
              if r = want then found := true)
        in
        check c (valid && !found)
      done);
  Array.fold_left max 0 (Mailbox.sharded_size_bytes content)

(* Dialing phase: one Bloom filter per shard, published as bytes, and
   sampled clients check their filter: a dialed client must find its
   token, anyone else's fresh probe must miss (§5.2: 1e-10 per lookup). *)
let dialing tr c inp =
  let p = inp.dial in
  let content, _ =
    span tr "mailbox.distribute_sharded" (fun () ->
        Mailbox.distribute_sharded ~shard:p.shard ~mode:`Dialing p.payloads)
  in
  let filters = Mailbox.filter_shards_exn content in
  span tr "bloom.publish" (fun () -> publish (Array.map Bloom.to_bytes filters));
  span tr "bloom.scan" (fun () ->
      for k = 0 to dial_sample - 1 do
        let cid = k * clients / dial_sample in
        let f = filters.(Shard.of_identity p.shard (email cid)) in
        let caller = cid - 1 in
        if caller >= 0 && caller < active then check c (Bloom.mem f p.expected.(caller))
        else check c (not (Bloom.mem f inp.probes.(k)))
      done);
  Array.iter (fun f -> check c (Bloom.false_positive_estimate f <= 10.0 *. Bloom.target_fp_rate)) filters;
  Array.fold_left max 0 (Mailbox.sharded_size_bytes content)

let pair tr c inp =
  Scenario.timed_pair ~addfriend:(fun () -> addfriend tr c inp) ~dialing:(fun () -> dialing tr c inp)

let untraced ~seed ~seconds ~setups =
  let setup_s, inp = Common.set_up_median ~times:setups ~dispose:ignore (fun () -> set_up ~seed) in
  let c = { Scenario.attempted = 0; failed = 0 } in
  let tr = Spans.create () in
  let pairs = Common.repeat ~seconds ~min:3 (fun () -> Scenario.logged (pair tr c inp)) in
  {
    Common.attempted = c.attempted;
    failed = c.failed;
    metrics =
      (("setup_s", setup_s) :: Scenario.metrics pairs)
      @ [ ("heap_words_per_client", Common.top_heap_words () /. float_of_int clients) ];
  }

let traced ~seed ~seconds =
  let inp = set_up ~seed in
  let c = { Scenario.attempted = 0; failed = 0 } in
  let tr = Spans.create () in
  let untraced, pairs, gc = Scenario.traced_pairs ~seconds ~pair:(fun () -> pair tr c inp) tr in
  let n = List.length pairs in
  {
    Common.attempted = c.attempted;
    failed = c.failed;
    metrics =
      Common.layer_metrics tr ~pairs:n
        ~seconds:
          [
            ("mailbox.distribute_sharded_s", "mailbox.distribute_sharded");
            ("mailbox.publish_s", "mailbox.publish");
            ("mailbox.scan_s", "mailbox.scan");
            ("bloom.publish_s", "bloom.publish");
            ("bloom.scan_s", "bloom.scan");
          ]
        ~mwords:[ ("mailbox.distribute_sharded_mwords", "mailbox.distribute_sharded") ]
      @ Common.pairing_probe (Params.production ()) ~calls:10
      @ Common.gc_metrics gc ~pairs:n
      @ Scenario.trace_metrics tr ~untraced ~traced:pairs;
  }
