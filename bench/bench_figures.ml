(* System-scale figure reproductions (Figures 6-10 and the §8.4 mailbox-size
   table), priced by the calibrated cost model over the real wire formats. *)

module Costmodel = Alpenhorn_sim.Costmodel
module Workload = Alpenhorn_sim.Workload
module Stats = Alpenhorn_sim.Stats
module Zipf = Alpenhorn_sim.Zipf
module Round_sim = Alpenhorn_sim.Round_sim
module Bloom = Alpenhorn_bloom.Bloom
module Drbg = Alpenhorn_crypto.Drbg
open Bench_util

let durations_hours = [ 0.5; 1.0; 2.0; 4.0; 8.0; 12.0; 24.0 ]
let durations_minutes = [ 1.0; 2.0; 3.0; 5.0; 8.0; 10.0 ]

(* Fig 6: add-friend client bandwidth vs round duration. *)
let fig6 pc =
  header "Figure 6: add-friend client bandwidth (KB/s) vs round duration";
  row ([ pad 10 "hours" ] @ List.map (fun n -> padl 10 (si n)) user_points);
  List.iter
    (fun hours ->
      let cells =
        List.map
          (fun n_users ->
            let bw =
              Costmodel.addfriend_bandwidth pc ~n_users ~n_servers:3 ~noise_mu:4000.0
                ~active_fraction:0.05 ~round_seconds:(hours *. 3600.0)
            in
            padl 10 (Printf.sprintf "%.3f" (bw /. 1000.0)))
          user_points
      in
      row ([ pad 10 (Printf.sprintf "%.1f" hours) ] @ cells))
    durations_hours;
  print_endline "paper reference: ~2 KB/s at 1h/1M users, falling hyperbolically with duration;";
  print_endline "mailbox ~7.4 MB at >=1M users (ours is proportionally smaller: 256 B requests vs 308 B)."

(* Fig 7: dialing client bandwidth vs round duration. *)
let fig7 pc =
  header "Figure 7: dialing client bandwidth (KB/s) vs round duration";
  row ([ pad 10 "minutes" ] @ List.map (fun n -> padl 10 (si n)) user_points);
  List.iter
    (fun minutes ->
      let cells =
        List.map
          (fun n_users ->
            let bw =
              Costmodel.dialing_bandwidth pc ~n_users ~n_servers:3 ~noise_mu:25000.0
                ~active_fraction:0.05 ~round_seconds:(minutes *. 60.0)
            in
            padl 10 (Printf.sprintf "%.2f" (bw /. 1000.0)))
          user_points
      in
      row ([ pad 10 (Printf.sprintf "%.0f" minutes) ] @ cells))
    durations_minutes;
  print_endline "paper reference: 3 KB/s at 5-minute rounds with 10M users (Bloom filter ~0.9 MB);";
  print_endline "1M users fit one 0.75 MB filter."

let latency_table pc machine ~label ~dial =
  row ([ pad 10 "users" ] @ List.map (fun s -> padl 12 (Printf.sprintf "%d servers" s)) [ 3; 5; 10 ]);
  List.iter
    (fun n_users ->
      let cells =
        List.map
          (fun n_servers ->
            let breakdown =
              if dial then
                Costmodel.dialing_round machine pc ~n_users ~n_servers ~noise_mu:25000.0
                  ~active_fraction:0.05 ~friends:1000 ~intents:10 ()
              else
                Costmodel.addfriend_round machine pc ~n_users ~n_servers ~noise_mu:4000.0
                  ~active_fraction:0.05 ()
            in
            padl 12 (Printf.sprintf "%.1f s" breakdown.Costmodel.total_seconds))
          [ 3; 5; 10 ]
      in
      row ([ pad 10 (si n_users) ] @ cells))
    user_points;
  print_endline label

(* Fig 8: AddFriend latency vs number of users, for 3/5/10 servers. *)
let fig8 pc =
  header "Figure 8: AddFriend request latency vs online users (paper-calibrated machine)";
  latency_table pc Costmodel.paper_machine ~dial:false
    ~label:"paper reference: 152 s at 10M users / 3 servers; more servers = higher latency.";
  header "Figure 8 (local calibration: this machine's pure-OCaml crypto, 1 core)";
  let local = Costmodel.measure_local (Alpenhorn_pairing.Params.production ()) in
  latency_table pc local ~dial:false
    ~label:"absolute numbers differ (no assembly pairings, 1 core); the shape must match."

(* Fig 9: Call latency vs number of users. *)
let fig9 pc =
  header "Figure 9: Call request latency vs online users (paper-calibrated machine)";
  latency_table pc Costmodel.paper_machine ~dial:true
    ~label:"paper reference: 118 s at 10M users / 3 servers.";
  header "Figure 9 (local calibration)";
  let local = Costmodel.measure_local (Alpenhorn_pairing.Params.production ()) in
  latency_table pc local ~dial:true ~label:""

(* The evaluation's workload under Zipf skew [s]: 5% of [n_users] active,
   3 servers, no Laplace variance. *)
let skewed ~n_users ~noise_mu s =
  {
    Workload.n_users;
    active_fraction = 0.05;
    recipient_skew = s;
    noise_mu;
    laplace_b = 0.0;
    chain_length = 3;
  }

(* Fig 10 + §8.4: latency and mailbox sizes under Zipf-skewed popularity.
   We sample the real per-mailbox request distribution and price each
   mailbox's download+scan individually. *)
let fig10 pc =
  header "Figure 10: AddFriend latency under Zipf-skewed popularity (1M users, 3 servers)";
  let machine = Costmodel.paper_machine in
  row [ pad 8 "skew s"; padl 10 "min"; padl 10 "median"; padl 10 "max"; padl 14 "mailbox range" ];
  List.iter
    (fun s ->
      let rng = Drbg.create ~seed:(Printf.sprintf "fig10-%.2f" s) in
      let load = Workload.generate (skewed ~n_users:1_000_000 ~noise_mu:4000.0 s) rng in
      let totals = Workload.total load in
      (* per-request latency: each real request lands in a mailbox whose
         size fixes the receiver's download + scan time *)
      let lat_of_mailbox m =
        (Costmodel.addfriend_round machine pc ~n_users:1_000_000 ~n_servers:3 ~noise_mu:4000.0
           ~active_fraction:0.05 ~mailbox_requests:totals.(m) ())
          .Costmodel.total_seconds
      in
      let lat = Array.init (Array.length totals) lat_of_mailbox in
      let weighted =
        Array.mapi (fun m l -> (l, float_of_int load.Workload.real.(m))) lat
      in
      let bytes m = totals.(m) * pc.Costmodel.request_bytes in
      let sizes = Array.init (Array.length totals) bytes in
      row
        [
          pad 8 (Printf.sprintf "%.1f" s);
          padl 10 (Printf.sprintf "%.1f s" (Stats.min lat));
          padl 10 (Printf.sprintf "%.1f s" (Stats.weighted_percentile weighted 50.0));
          padl 10 (Printf.sprintf "%.1f s" (Stats.max lat));
          padl 14
            (Printf.sprintf "%s-%s"
               (human_bytes (Array.fold_left Stdlib.min sizes.(0) sizes))
               (human_bytes (Array.fold_left Stdlib.max sizes.(0) sizes)));
        ])
    [ 0.0; 0.5; 1.0; 1.5; 2.0 ];
  print_endline "paper reference: median flat (~20 s); min falls / max grows with skew;";
  print_endline "at s=2 mailboxes range 4.15-14.95 MB (308 B requests; ours are 256 B)."

(* §8.4 dialing sizes under skew at 10M users. *)
let skewsize pc =
  header "Section 8.4: dialing mailbox (Bloom filter) sizes under skew, 10M users";
  row [ pad 8 "skew s"; padl 12 "min filter"; padl 12 "max filter"; padl 12 "lat min"; padl 12 "lat max" ];
  let machine = Costmodel.paper_machine in
  List.iter
    (fun s ->
      let rng = Drbg.create ~seed:(Printf.sprintf "skewsize-%.2f" s) in
      let load = Workload.generate (skewed ~n_users:10_000_000 ~noise_mu:25000.0 s) rng in
      let totals = Workload.total load in
      let filter_bytes = Array.map (fun n -> n * Bloom.bits_per_element / 8) totals in
      let lat m =
        (Costmodel.dialing_round machine pc ~n_users:10_000_000 ~n_servers:3 ~noise_mu:25000.0
           ~active_fraction:0.05 ~friends:1000 ~intents:10 ~mailbox_tokens:totals.(m) ())
          .Costmodel.total_seconds
      in
      let lats = Array.init (Array.length totals) lat in
      row
        [
          pad 8 (Printf.sprintf "%.1f" s);
          padl 12 (human_bytes (Array.fold_left Stdlib.min filter_bytes.(0) filter_bytes));
          padl 12 (human_bytes (Array.fold_left Stdlib.max filter_bytes.(0) filter_bytes));
          padl 12 (Printf.sprintf "%.1f s" (Stats.min lats));
          padl 12 (Printf.sprintf "%.1f s" (Stats.max lats));
        ])
    [ 0.0; 2.0 ];
  print_endline "paper reference at s=2: filters 231 KB-1.39 MB, latency 119-120 s."

(* Full-scale cross-check (DESIGN.md §15): every §8.3 figure evaluated at
   1M users in one table, plus the sharded §5.1 download the scale path
   adds — the row `bench scale` measures for real with synthetic tokens. *)
let figscale pc =
  header "Full scale: Figures 6-10 at 1M users, with the sharded download model";
  let machine = Costmodel.paper_machine in
  let n_users = 1_000_000 in
  row [ pad 34 "figure"; padl 14 "value"; padl 26 "setting" ];
  let af_bw =
    Costmodel.addfriend_bandwidth pc ~n_users ~n_servers:3 ~noise_mu:4000.0 ~active_fraction:0.05
      ~round_seconds:3600.0
  in
  row
    [
      pad 34 "fig 6: add-friend bandwidth"; padl 14 (Printf.sprintf "%.3f KB/s" (af_bw /. 1000.0));
      padl 26 "1 h rounds, 3 servers";
    ];
  let dial_bw =
    Costmodel.dialing_bandwidth pc ~n_users ~n_servers:3 ~noise_mu:25000.0 ~active_fraction:0.05
      ~round_seconds:300.0
  in
  row
    [
      pad 34 "fig 7: dialing bandwidth"; padl 14 (Printf.sprintf "%.2f KB/s" (dial_bw /. 1000.0));
      padl 26 "5 min rounds, 3 servers";
    ];
  let af_lat =
    (Costmodel.addfriend_round machine pc ~n_users ~n_servers:3 ~noise_mu:4000.0
       ~active_fraction:0.05 ())
      .Costmodel.total_seconds
  in
  row
    [
      pad 34 "fig 8: add-friend latency"; padl 14 (Printf.sprintf "%.1f s" af_lat);
      padl 26 "paper-calibrated machine";
    ];
  let dial_lat =
    (Costmodel.dialing_round machine pc ~n_users ~n_servers:3 ~noise_mu:25000.0
       ~active_fraction:0.05 ~friends:1000 ~intents:10 ())
      .Costmodel.total_seconds
  in
  row
    [
      pad 34 "fig 9: dialing latency"; padl 14 (Printf.sprintf "%.1f s" dial_lat);
      padl 26 "paper-calibrated machine";
    ];
  (* fig 10 shape at 1M: the skewed median must stay flat vs the uniform row *)
  let median s =
    let rng = Drbg.create ~seed:(Printf.sprintf "figscale-%.2f" s) in
    let load = Workload.generate (skewed ~n_users ~noise_mu:4000.0 s) rng in
    let totals = Workload.total load in
    let lat m =
      (Costmodel.addfriend_round machine pc ~n_users ~n_servers:3 ~noise_mu:4000.0
         ~active_fraction:0.05 ~mailbox_requests:totals.(m) ())
        .Costmodel.total_seconds
    in
    let weighted =
      Array.mapi (fun m n -> (lat m, float_of_int n)) load.Workload.real
    in
    Stats.weighted_percentile weighted 50.0
  in
  let m0 = median 0.0 and m2 = median 2.0 in
  row
    [
      pad 34 "fig 10: median latency, s=0 vs s=2";
      padl 14 (Printf.sprintf "%.1f / %.1f s" m0 m2);
      padl 26 "median must stay flat";
    ];
  (* the sharded §5.1 variant on the DES replay: shard download instead of
     one mailbox, scale.* gauges set for the SLO rules *)
  let tl =
    Round_sim.dialing machine ~num_shards:16 pc ~n_users ~n_servers:3 ~noise_mu:25000.0
      ~active_fraction:0.05 ~friends:1000 ~intents:10 ~chunks:1
  in
  let snap = Alpenhorn_telemetry.Telemetry.Snapshot.take Alpenhorn_telemetry.Telemetry.default in
  let shard_bytes =
    List.fold_left Float.max 0.0
      (Alpenhorn_telemetry.Telemetry.Snapshot.gauges snap "scale.bytes_per_client")
  in
  row
    [
      pad 34 "fig 9 + §5.1 sharding: dialing";
      padl 14 (Printf.sprintf "%.1f s" tl.Round_sim.client_done);
      padl 26 (Printf.sprintf "16 shards, %s/client" (human_bytes (int_of_float shard_bytes)));
    ];
  print_endline "all five figures priced at 1M users by the same calibrated model the per-figure";
  print_endline "sections sweep; the sharded row replays the round on the DES engine with the";
  print_endline "client downloading its contiguous-range shard (bench scale measures it for real)."
