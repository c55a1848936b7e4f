module Sha256 = Alpenhorn_crypto.Sha256
module Mailbox_id = Alpenhorn_mixnet.Mailbox_id
module Shard = Alpenhorn_mixnet.Shard
module Stream_writer = Alpenhorn_mixnet.Stream_writer
module Mailbox = Alpenhorn_mixnet.Mailbox
module Payload = Alpenhorn_mixnet.Payload
module Bloom = Alpenhorn_bloom.Bloom
module Parallel = Alpenhorn_parallel.Parallel
module Tel = Alpenhorn_telemetry.Telemetry

(* Million-user dialing rounds (DESIGN.md §15). The real deployment runs
   every onion layer and is bounded by public-key crypto to ~10^4 clients
   per round in-process; this driver keeps the paper's *distribution*
   pipeline — mailbox assignment, §5.1 sharding, §5.2 Bloom packing, the
   client scan — while replacing the mixnet's crypto with synthetic
   32-byte tokens, so 10^6 clients fit in one process and the per-client
   memory and download budgets can be asserted in CI.

   The tokens leave the generator as last-hop payloads (mailbox header +
   token) and are packed by the last server's own
   [Mailbox.distribute_sharded], so the gates measure the path real
   dialing rounds run. Per token the round holds one payload string and
   the distribution's two index words (shard id and permutation slot); no
   per-client hashtable, list or closure exists anywhere on the path, so
   per-client cost is a constant number of words, which {!budget_words}
   pins down and the scale suite enforces. *)

let token_bytes = 32

type result = {
  clients : int;
  active : int;
  shards : int;
  num_mailboxes : int;
  tokens : int;
  noise : int;
  round_seconds : float;
  bytes_per_client : int;
  total_filter_bytes : int;
  writer_peak_bytes : int;
  peak_words : int;
  words_per_client : float;
  scan_clients : int;
  scan_dialed : int;
  scan_hits : int;
  scan_false_positives : int;
}

(* Affine per-client memory budget, in heap words: a fixed process slack
   (runtime, pairing tables, metrics, the bounded writer) plus a constant
   per client. A token costs ~9 words (its payload string and array slot,
   plus the distribution's two index words) and the paper's §6-balanced
   rounds carry ~1.2 tokens per client, so 48 words per client is several
   times the measured cost (calibrated in BENCH_scale.json)
   while still failing loudly on any O(n) regression such as a per-client
   hashtable slipping back in. *)
let budget_slack_words = 16_000_000
let budget_per_client_words = 48
let budget_words ~clients = budget_slack_words + (budget_per_client_words * clients)

let email i = "u" ^ string_of_int i

let g name = Tel.Gauge.v Tel.default name
let c name = Tel.Counter.v Tel.default name

let run ?(seed = "scale") ?shards ?(noise_per_mailbox = 75_000) ?(active_fraction = 0.05)
    ?(scan_sample = 4096) ~clients () =
  if clients < 1 then invalid_arg "Scale.run: clients";
  if noise_per_mailbox < 0 then invalid_arg "Scale.run: noise_per_mailbox";
  let pool = Parallel.get () in
  let active = Stdlib.max 1 (int_of_float (Float.round (float_of_int clients *. active_fraction))) in
  (* One shard per ~64k clients keeps shard downloads CDN-sized. *)
  let num_shards =
    match shards with
    | Some s ->
      if s < 1 then invalid_arg "Scale.run: shards";
      s
    | None -> Stdlib.max 1 (clients / 65_536)
  in
  let { Mailbox.num_mailboxes; _ } =
    Mailbox.plan ~expected_real:active
      ~noise_mu:(float_of_int noise_per_mailbox /. 3.0)
      ~chain_length:3 ~shards:num_shards
  in
  let shard = Shard.create ~num_shards ~num_mailboxes in
  let noise = num_mailboxes * noise_per_mailbox in
  let n_tokens = active + noise in
  Gc.full_major ();
  let before = Gc.stat () in
  let t0 = Unix.gettimeofday () in
  (* -- generate: one last-hop payload (mailbox header + token) per dial
     and per noise message, in contiguous chunks over the pool -- *)
  let payloads = Array.make n_tokens "" in
  let n_chunks = Stdlib.max 1 (Stdlib.min (Parallel.size pool * 8) n_tokens) in
  ignore
    (Parallel.map_range pool
       (fun ci ->
         for i = ci * n_tokens / n_chunks to ((ci + 1) * n_tokens / n_chunks) - 1 do
           let mailbox =
             if i < active then
               (* real dial: client i calls client (i + 1) mod clients, so
                  the token lands in the callee's mailbox *)
               Mailbox_id.of_identity (email ((i + 1) mod clients)) ~num_mailboxes
             else (* noise: uniform over mailboxes, like the last hop's *)
               (i - active) mod num_mailboxes
           in
           let token = Sha256.digest (Printf.sprintf "%s:tok:%d" seed i) in
           payloads.(i) <- Payload.encode ~mailbox token
         done)
       n_chunks);
  (* -- shard and pack: the last server's own sharded distribution -- *)
  let filters =
    Mailbox.filter_shards_exn (fst (Mailbox.distribute_sharded ~shard ~mode:`Dialing payloads))
  in
  (* -- publish: stream every shard through the bounded writer (a CDN
     upload in the real deployment); peak heap held by publishing is the
     writer's capacity, not the round size -- *)
  let sink, sunk = Stream_writer.counting_sink () in
  let w = Stream_writer.create sink in
  Array.iter (fun f -> Stream_writer.write w (Bloom.to_bytes f)) filters;
  Stream_writer.flush w;
  let writer_peak = Stream_writer.peak_buffered w in
  let total_filter_bytes = sunk () in
  (* -- scan: a sample of callees fetches its shard's filter and checks its
     expected token, chunked over the pool like a client fleet would be.
     Clients 1..active received a dial (from caller c-1); anyone else
     checking a fresh token measures false positives. -- *)
  let sample = Stdlib.min scan_sample clients in
  let scan_results =
    Parallel.map_range pool
      (fun k ->
        let cid = k * clients / Stdlib.max 1 sample in
        let f = filters.(Shard.of_identity shard (email cid)) in
        (* the token dialed *to* cid, if any: caller cid-1 sent token cid-1 *)
        let caller = (cid + clients - 1) mod clients in
        if caller < active then
          if
            Bloom.mem_sub f
              (Bytes.unsafe_of_string payloads.(caller))
              ~pos:Payload.overhead ~len:token_bytes
          then `Hit
          else `Missed
        else begin
          let probe = Sha256.digest (Printf.sprintf "%s:probe:%d" seed cid) in
          if Bloom.mem f probe then `False_positive else `Clean
        end)
      sample
  in
  let scan_hits = Array.fold_left (fun n r -> if r = `Hit then n + 1 else n) 0 scan_results in
  let fps =
    Array.fold_left (fun n r -> if r = `False_positive then n + 1 else n) 0 scan_results
  in
  let scan_dialed =
    Array.fold_left (fun n r -> if r = `Hit || r = `Missed then n + 1 else n) 0 scan_results
  in
  let round_seconds = Unix.gettimeofday () -. t0 in
  let after = Gc.stat () in
  (* Peak additional heap attributable to the round: the high-water mark
     minus what was live before it started. Monotone [top_heap_words]
     under-reports later rounds in the same process (the heap is already
     grown), which only makes the asserted ceiling harder to cheat. *)
  let peak_words = Stdlib.max 0 (after.Gc.top_heap_words - before.Gc.live_words) in
  let words_per_client = float_of_int peak_words /. float_of_int clients in
  let bytes_per_client =
    Array.fold_left (fun acc f -> Stdlib.max acc (Bloom.size_bytes f)) 0 filters
  in
  Tel.Gauge.set (g "scale.clients") (float_of_int clients);
  Tel.Gauge.set (g "scale.shards") (float_of_int num_shards);
  Tel.Gauge.set (g "scale.bytes_per_client") (float_of_int bytes_per_client);
  Tel.Gauge.set (g "scale.words_per_client") words_per_client;
  Tel.Gauge.set (g "scale.round_seconds") round_seconds;
  Tel.Gauge.set (g "scale.writer_peak_bytes") (float_of_int writer_peak);
  Tel.Counter.add (c "scale.tokens") n_tokens;
  Tel.Counter.add (c "scale.noise") noise;
  Tel.Counter.add (c "scale.scan_hits") scan_hits;
  {
    clients;
    active;
    shards = num_shards;
    num_mailboxes;
    tokens = n_tokens;
    noise;
    round_seconds;
    bytes_per_client;
    total_filter_bytes;
    writer_peak_bytes = writer_peak;
    peak_words;
    words_per_client;
    scan_clients = sample;
    scan_dialed;
    scan_hits;
    scan_false_positives = fps;
  }

let within_budget r = r.peak_words <= budget_words ~clients:r.clients

let pp fmt r =
  Format.fprintf fmt
    "scale: %d clients, %d shards, %d mailboxes@\n\
    \  tokens %d (%d noise)  round %.2f s@\n\
    \  download %d B/client  filters %d B total  writer peak %d B@\n\
    \  heap %d words peak (%.1f words/client, budget %d)@\n\
    \  scan %d/%d dialed found (%d sampled), %d false positives@\n"
    r.clients r.shards r.num_mailboxes r.tokens r.noise r.round_seconds r.bytes_per_client
    r.total_filter_bytes r.writer_peak_bytes r.peak_words r.words_per_client
    (budget_words ~clients:r.clients)
    r.scan_hits r.scan_dialed r.scan_clients r.scan_false_positives
