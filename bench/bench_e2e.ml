(* End-to-end sanity benchmark: the real protocol (no cost model) at small
   scale, plus the ablations DESIGN.md calls out. *)

module B = Alpenhorn_bigint.Bigint
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve
module Ibe = Alpenhorn_ibe.Ibe
module Bloom = Alpenhorn_bloom.Bloom
module Drbg = Alpenhorn_crypto.Drbg
module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Mailbox = Alpenhorn_mixnet.Mailbox
module Tel = Alpenhorn_telemetry.Telemetry
open Bench_util

(* Real end-to-end rounds with n in-process clients on the test curve.
   All timing comes out of the telemetry registry (round spans and the
   per-server unwrap histogram), not ad-hoc stopwatches — the same
   snapshot a deployment would export. *)

let e2e () =
  header "End-to-end: real protocol, in-process deployment (test curve)";
  row
    [
      pad 10 "clients"; padl 14 "add-friend"; padl 14 "dialing"; padl 12 "unwrap";
      padl 14 "scans (hits)"; padl 12 "mailbox"; padl 12 "alloc"; padl 10 "gc pause";
    ];
  let machine = Buffer.create 256 in
  Buffer.add_string machine "{";
  List.iteri
    (fun i n ->
      let config = { Config.test with Config.addfriend_noise_mu = 5.0; dialing_noise_mu = 10.0 } in
      let d = Deployment.create ~config ~seed:(Printf.sprintf "bench-e2e-%d" n) in
      let clients =
        List.init n (fun i ->
            Deployment.new_client d
              ~email:(Printf.sprintf "u%d@bench" i)
              ~callbacks:Client.null_callbacks)
      in
      List.iter
        (fun c -> match Deployment.register d c with Ok () -> () | Error _ -> assert false)
        clients;
      (* 10% of clients queue a real friend request *)
      let actives = Stdlib.max 1 (n / 10) in
      List.iteri
        (fun i c ->
          if i < actives then
            Client.add_friend c ~email:(Printf.sprintf "u%d@bench" ((i + (n / 2)) mod n)) ())
        clients;
      (* flush pending GC deltas into the pre-reset window so the post-round
         runtime counters cover exactly these two rounds *)
      Alpenhorn_telemetry.Runtime_stats.sample (Alpenhorn_telemetry.Runtime_stats.get_default ());
      ignore (Tel.Snapshot.take ~reset:true Tel.default);
      let s = Deployment.run_addfriend_round d () in
      let _ = Deployment.run_dialing_round d () in
      (* rounds already sampled at close (Deployment); the snapshot below
         carries runtime.alloc.* counters and the gc pause histogram *)
      let snap = Tel.Snapshot.take ~reset:true Tel.default in
      let af = Tel.Snapshot.span_total snap "round.addfriend" in
      let dial = Tel.Snapshot.span_total snap "round.dialing" in
      let unwrap = Tel.Snapshot.hist_sum snap "mix.unwrap_seconds" in
      let scans = Tel.Snapshot.counter_sum snap "client.scan_attempts" in
      let hits = Tel.Snapshot.counter_sum snap "client.scan_hits" in
      let alloc_words = Tel.Snapshot.counter_sum snap "runtime.alloc.minor_words" in
      let pause_max =
        match Tel.Snapshot.histogram snap "runtime.gc.pause_seconds" with
        | Some h when h.Tel.Histogram.count > 0 -> h.Tel.Histogram.max_v
        | _ -> 0.0
      in
      row
        [
          pad 10 (string_of_int n);
          padl 14 (Printf.sprintf "%.2f s" af);
          padl 14 (Printf.sprintf "%.2f s" dial);
          padl 12 (Printf.sprintf "%.2f s" unwrap);
          padl 14 (Printf.sprintf "%d (%d)" scans hits);
          padl 12 (human_bytes (Array.fold_left ( + ) 0 s.Deployment.mailbox_bytes));
          padl 12 (Printf.sprintf "%s w" (si alloc_words));
          padl 10 (human_time (pause_max *. 1e9));
        ];
      Buffer.add_string machine
        (Printf.sprintf "%s\"e2e_%d_round_s\":%.3f,\"e2e_%d_alloc_mwords\":%.2f,\"e2e_%d_gc_pause_max_ms\":%.3f"
           (if i = 0 then "" else ",")
           n (af +. dial) n
           (float_of_int alloc_words /. 1e6)
           n (pause_max *. 1e3)))
    [ 10; 25; 50 ];
  Buffer.add_string machine "}";
  print_endline "every round runs genuine IBE, onions, noise, shuffles and Bloom filters;";
  print_endline "the phase breakdown is read from the telemetry snapshot, not stopwatches;";
  print_endline "alloc and gc pause come from the runtime sampler (lib/telemetry/runtime_stats).";
  (* machine-readable line for transcribing into BENCH_e2e.json *)
  print_endline (Buffer.contents machine)

(* Ablation (§4.2): Anytrust-IBE vs naive onion-IBE as PKG count grows. *)
let ablation_onion () =
  header "Ablation: Anytrust-IBE vs onion-IBE (naive nesting), by PKG count";
  let pr = Params.test () in
  let rng = Drbg.create ~seed:"ablation-onion" in
  let msg = String.make 100 'm' in
  row
    [
      pad 6 "PKGs"; padl 14 "anytrust size"; padl 14 "onion size"; padl 14 "anytrust dec";
      padl 14 "onion dec";
    ];
  List.iter
    (fun n ->
      let pkgs = List.init n (fun _ -> Ibe.setup pr rng) in
      let keys = List.map (fun (msk, _) -> Ibe.extract pr msk "a@b") pkgs in
      (* anytrust: one ciphertext under the key sum *)
      let mpk_agg = Ibe.aggregate_public pr (List.map snd pkgs) in
      let d_agg = Ibe.aggregate_identity pr keys in
      let c_any = Ibe.encrypt pr rng mpk_agg ~id:"a@b" msg in
      let t_any = time_ns ~quota:0.5 "any" (fun () -> Ibe.decrypt pr d_agg c_any) in
      (* onion: nested encryptions, innermost first *)
      let c_onion =
        List.fold_left (fun acc (_, mpk) -> Ibe.encrypt pr rng mpk ~id:"a@b" acc) msg pkgs
      in
      let t_onion =
        time_ns ~quota:0.5 "onion" (fun () ->
            List.fold_left
              (fun acc d -> match acc with Some m -> Ibe.decrypt pr d m | None -> None)
              (Some c_onion) (List.rev keys))
      in
      row
        [
          pad 6 (string_of_int n);
          padl 14 (human_bytes (String.length c_any));
          padl 14 (human_bytes (String.length c_onion));
          padl 14 (human_time t_any);
          padl 14 (human_time t_onion);
        ])
    [ 1; 2; 3; 5 ];
  print_endline "anytrust cost is flat in the number of PKGs; onion-IBE grows linearly (§4.2)."

(* Ablation (§5.2): Bloom filter vs raw token list download size. *)
let ablation_bloom () =
  header "Ablation: dialing mailbox encoding (Bloom filter vs raw 32-byte tokens)";
  row [ pad 10 "tokens"; padl 12 "bloom"; padl 12 "raw"; padl 8 "ratio" ];
  List.iter
    (fun n ->
      let bloom_bytes = n * Bloom.bits_per_element / 8 in
      let raw = n * 32 in
      row
        [
          pad 10 (si n);
          padl 12 (human_bytes bloom_bytes);
          padl 12 (human_bytes raw);
          padl 8 (Printf.sprintf "%.1fx" (float_of_int raw /. float_of_int bloom_bytes));
        ])
    [ 1_000; 125_000; 1_000_000 ];
  print_endline "paper: 48-bit encoding makes the 1M-user filter 0.75 MB instead of 4 MB."

(* Ablation (§6): mailbox-count balance — noise overhead vs download size. *)
let ablation_mailboxes () =
  header "Ablation: mailbox count vs noise overhead and client download (1M users, add-friend)";
  let pr = Params.production () in
  let request_bytes = Alpenhorn_core.Wire.request_ciphertext_size pr in
  let active = 50_000 and mu = 4000.0 and servers = 3 in
  row [ pad 10 "mailboxes"; padl 14 "download"; padl 16 "total noise"; padl 16 "noise fraction" ];
  List.iter
    (fun k ->
      let per_mailbox =
        Mailbox.expected_load ~expected_real:active ~noise_mu:mu ~chain_length:servers
          ~num_mailboxes:k
      in
      let download = int_of_float (per_mailbox *. float_of_int request_bytes) in
      let total_noise = int_of_float (mu *. float_of_int (servers * k)) in
      row
        [
          pad 10 (string_of_int k);
          padl 14 (human_bytes download);
          padl 16 (Printf.sprintf "%d msgs" total_noise);
          padl 16
            (Printf.sprintf "%.0f%%"
               (100.0 *. float_of_int total_noise /. float_of_int (total_noise + active)));
        ])
    [ 1; 2; 4; 8; 16; 42 ];
  Printf.printf "the §6 balance rule picks K = %d: noise ≈ real per mailbox.\n"
    (Mailbox.plan ~expected_real:active ~noise_mu:mu ~chain_length:servers ~shards:0).num_mailboxes

(* §9 DoS mitigation: cost of the blind-signature admission control. *)
let ratelimit () =
  header "Rate limiting (§9): blind-signature token costs";
  let pr = Params.production () in
  let rng = Drbg.create ~seed:"bench-ratelimit" in
  let module Blind = Alpenhorn_bls.Blind in
  let module Ratelimit = Alpenhorn_mixnet.Ratelimit in
  let issuer = Ratelimit.create_issuer pr ~rng ~quota_per_day:1_000_000 in
  let issuer_pk = Ratelimit.issuer_public issuer in
  let t_blind = time_ns "blind" (fun () -> Blind.blind pr rng ~msg:"serial") in
  let blinded, r = Blind.blind pr rng ~msg:"serial" in
  let t_issue =
    time_ns "issue" (fun () -> Ratelimit.issue issuer ~now:0 ~user:"u@x" blinded)
  in
  let signed =
    match Ratelimit.issue issuer ~now:0 ~user:"w@x" blinded with
    | Ok s -> s
    | Error _ -> assert false
  in
  let signature = Blind.unblind pr issuer_pk ~signed r in
  let t_unblind = time_ns "unblind" (fun () -> Blind.unblind pr issuer_pk ~signed r) in
  let t_verify = time_ns "gate-verify" (fun () -> Blind.verify pr issuer_pk ~msg:"serial" signature) in
  row [ pad 24 "operation"; padl 12 "cost"; pad 30 "  runs on" ];
  row [ pad 24 "blind a serial"; padl 12 (human_time t_blind); pad 30 "  client" ];
  row [ pad 24 "issue (sign blinded)"; padl 12 (human_time t_issue); pad 30 "  issuer, per token/day" ];
  row [ pad 24 "unblind"; padl 12 (human_time t_unblind); pad 30 "  client" ];
  row [ pad 24 "gate verification"; padl 12 (human_time t_verify); pad 30 "  entry server, per onion" ];
  Printf.printf "token size on the wire: %d bytes\n" (Ratelimit.token_size pr);
  print_endline "gate verification is two pairings; the entry server can parallelize per-core."

(* Ablation: store-and-forward (the paper's design) vs a streaming mixnet,
   replayed on the discrete-event engine. *)
let ablation_pipeline () =
  header "Ablation: store-and-forward vs streaming mixnet (DES replay, 10M users, 3 servers)";
  let module Round_sim = Alpenhorn_sim.Round_sim in
  let module Costmodel = Alpenhorn_sim.Costmodel in
  let pr = Params.production () in
  let pc = Costmodel.protocol_costs pr in
  let m = Costmodel.paper_machine in
  row [ pad 10 "chunks"; padl 14 "add-friend"; padl 14 "dialing" ];
  List.iter
    (fun chunks ->
      let af =
        (Round_sim.addfriend m pc ~n_users:10_000_000 ~n_servers:3 ~noise_mu:4000.0
           ~active_fraction:0.05 ~chunks)
          .Round_sim.client_done
      in
      let dial =
        (Round_sim.dialing m pc ~n_users:10_000_000 ~n_servers:3 ~noise_mu:25000.0
           ~active_fraction:0.05 ~friends:1000 ~intents:10 ~chunks)
          .Round_sim.client_done
      in
      row
        [
          pad 10 (string_of_int chunks);
          padl 14 (Printf.sprintf "%.1f s" af);
          padl 14 (Printf.sprintf "%.1f s" dial);
        ])
    [ 1; 2; 4; 8; 16; 64 ];
  print_endline "chunks = 1 is the paper's batch design (matches Fig 8/9); streaming would cut";
  print_endline "latency ~3x on a 3-server chain but leaks arrival-order information, which is";
  print_endline "why Alpenhorn batches entire rounds."
