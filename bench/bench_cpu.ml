(* §8.2-§8.3 CPU microbenchmarks on this implementation's primitives, plus
   the wire-size accounting of §8.6. Each quantity the paper states for its
   Go/assembly prototype is re-measured here and printed side by side. *)

module Params = Alpenhorn_pairing.Params
module Pairing = Alpenhorn_pairing.Pairing
module Curve = Alpenhorn_pairing.Curve
module Field = Alpenhorn_pairing.Field
module Mont = Alpenhorn_pairing.Mont
module Ibe = Alpenhorn_ibe.Ibe
module Bls = Alpenhorn_bls.Bls
module Dh = Alpenhorn_dh.Dh
module Onion = Alpenhorn_mixnet.Onion
module Payload = Alpenhorn_mixnet.Payload
module Keywheel = Alpenhorn_keywheel.Keywheel
module Bloom = Alpenhorn_bloom.Bloom
module Hmac = Alpenhorn_crypto.Hmac
module Sha256 = Alpenhorn_crypto.Sha256
module Drbg = Alpenhorn_crypto.Drbg
module Wire = Alpenhorn_core.Wire
module Pkg = Alpenhorn_pkg.Pkg
module Parallel = Alpenhorn_parallel.Parallel
module Costmodel = Alpenhorn_sim.Costmodel
module Tel = Alpenhorn_telemetry.Telemetry
module Client = Alpenhorn_core.Client
module Bigint = Alpenhorn_bigint.Bigint
open Bench_util

let muls = Tel.Counter.v Tel.default "pairing.mont_mul"

(* ns per call of [f] and its "pairing.mont_mul" count per call *)
let time_and_muls name ~per f =
  let m0 = Tel.Counter.value muls in
  ignore (f ());
  let m = (Tel.Counter.value muls - m0) / per in
  (time_ns name f /. float_of_int per, m)

(* Trial decryption as a scan runs it, per ciphertext: a miss (a request
   to someone else) or a hit, alone or in a full batch (Client.scan_chunk)
   under one prepared key *)
let scan_costs (pr : Params.t) =
  let rng = Drbg.create ~seed:"bench-scan" in
  let msk, mpk = Ibe.setup pr rng in
  let me = "bench@example.org" in
  let bls_sk, bls_pk = Bls.keygen pr rng in
  let sig_ = Bls.sign pr bls_sk "bench" in
  let request =
    Wire.encode_request pr
      {
        Wire.sender_email = "friend@example.org";
        sender_key = bls_pk;
        sender_sig = sig_;
        pkg_sigs = sig_;
        dialing_key = snd (Dh.keygen pr rng);
        dialing_round = 1;
      }
  in
  let miss () =
    Ibe.encrypt pr rng mpk ~id:"other@example.org" (Drbg.bytes rng (String.length request))
  in
  let hit () = Ibe.encrypt pr rng mpk ~id:me request in
  let decode = Wire.decode_request pr in
  let full = Printf.sprintf "batch of %d" Client.scan_chunk in
  Ibe.with_prepared_key pr (Ibe.extract pr msk me) (fun key ->
      let per batch =
        time_and_muls "scan" ~per:(List.length batch) (fun () -> Ibe.decrypt_batch pr key ~decode batch)
      in
      [
        ("miss, alone", per [ miss () ]);
        ("miss, " ^ full, per (List.init Client.scan_chunk (fun _ -> miss ())));
        ("hit, alone", per [ hit () ]);
        ("hit, " ^ full, per (List.init Client.scan_chunk (fun _ -> hit ())));
      ])

(* The trace-zero sign rule's Legendre symbol of a norm: Mont.legendre's
   binary Jacobi algorithm, and Euler's criterion (a power to (p − 1)/2) *)
let legendre_costs (fp : Field.t) =
  let ctx = Field.mont_ctx fp in
  let rng = Drbg.create ~seed:"bench-legendre" in
  let a = Mont.of_bigint ctx (Drbg.bigint_below rng (Field.modulus fp)) and r = Mont.zero ctx in
  let half = Bigint.shift_right (Bigint.sub (Field.modulus fp) Bigint.one) 1 in
  [
    ("Jacobi (Mont.legendre)", time_and_muls "legendre" ~per:1 (fun () -> Mont.legendre ctx a));
    ("Euler, a^((p-1)/2)", time_and_muls "euler" ~per:1 (fun () -> Mont.pow_into ctx r a half));
  ]

(* rows of (name, (ns, muls)) per curve, test curve first *)
let print_by_curve first test prod =
  row [ pad 24 first; padl 12 "test curve"; padl 7 "muls"; padl 12 "production"; padl 7 "muls" ];
  List.iter
    (fun (name, (t, m)) ->
      let tp, mp = List.assoc name prod in
      row
        [ pad 24 name; padl 12 (human_time t); padl 7 (string_of_int m); padl 12 (human_time tp);
          padl 7 (string_of_int mp) ])
    test

let cpu () =
  let pr = Params.production () in
  let rng = Drbg.create ~seed:"bench-cpu" in
  header "Section 8.2/8.3 CPU microbenchmarks (production curve, 1 core, pure OCaml)";
  let msk, mpk = Ibe.setup pr rng in
  let d_id = Ibe.extract pr msk "bench@example.org" in
  let msg = String.make (Wire.request_plaintext_size pr) 'm' in
  let ctxt = Ibe.encrypt pr rng mpk ~id:"bench@example.org" msg in

  let t_pairing = time_ns "pairing" (fun () -> Pairing.pair pr pr.Params.g d_id) in
  (* one in-place field multiplication on each curve's field: the
     straight-line kernels for 8 limbs (production) and 3 limbs (test) *)
  let t_mont (fp : Field.t) =
    let ctx = Field.mont_ctx fp in
    let el () = Mont.of_bigint ctx (Drbg.bigint_below rng (Field.modulus fp)) in
    let a = el () and b = el () in
    time_ns "mont-mul" (fun () -> Mont.mul_into ctx a a b)
  in
  let t_mont8 = t_mont pr.Params.fp and t_mont3 = t_mont (Params.test ()).Params.fp in
  let t_ibe_dec = time_ns "ibe-decrypt" (fun () -> Ibe.decrypt pr d_id ctxt) in
  let t_ibe_enc =
    time_ns "ibe-encrypt" (fun () -> Ibe.encrypt pr rng mpk ~id:"bench@example.org" msg)
  in
  let t_extract = time_ns "pkg-extract" (fun () -> Ibe.extract pr msk "someone@example.org") in
  let t_hash = time_ns "keywheel-hash" (fun () -> Hmac.hmac_sha256 ~key:(String.make 32 'k') "t") in
  let t_sha = time_ns "sha256-64B" (fun () -> Sha256.digest (String.make 64 'x')) in
  (* §5.2 packing: one dial token into a paper-geometry filter, cycling
     through 4096 distinct tokens *)
  let packed = Bloom.create ~expected_elements:100_000 in
  let tokens = Bytes.of_string (Drbg.bytes rng (32 * 4096)) and next = ref 0 in
  let t_bloom =
    time_ns "bloom-add-32B" (fun () ->
        next := (!next + 1) land 4095;
        Bloom.add_sub packed tokens ~pos:(32 * !next) ~len:32)
  in
  let ssk, spk = Dh.keygen pr rng in
  let onion = Onion.wrap pr rng ~server_pks:[ spk ] msg in
  let t_unwrap = time_ns "onion-unwrap" (fun () -> Onion.unwrap pr ~sk:ssk onion) in
  let bls_sk, _ = Bls.keygen pr rng in
  let t_sign = time_ns "bls-sign" (fun () -> Bls.sign pr bls_sk "msg") in
  let scalar = Drbg.bigint_below rng pr.Params.q in
  let t_smul = time_ns "g1-scalar-mult" (fun () -> Curve.mul pr.Params.fp scalar pr.Params.g) in
  ignore (Params.mul_g pr scalar) (* force the comb table before timing *);
  let t_smul_fb = time_ns "g1-scalar-mult-fixed" (fun () -> Params.mul_g pr scalar) in

  row [ pad 22 "operation"; padl 12 "this impl"; pad 34 "  paper (Go + AMD64 asm, BN-256)" ];
  row [ pad 22 "IBE decrypt"; padl 12 (human_time t_ibe_dec); pad 34 "  1.25 ms (800/s/core)" ];
  row [ pad 22 "IBE encrypt"; padl 12 (human_time t_ibe_enc); pad 34 "  ~1.25 ms" ];
  row [ pad 22 "pairing"; padl 12 (human_time t_pairing); pad 34 "  (dominates IBE ops)" ];
  row [ pad 22 "Mont mul (8 limbs)"; padl 12 (human_time t_mont8); pad 34 "  -" ];
  row [ pad 22 "Mont mul (3 limbs)"; padl 12 (human_time t_mont3); pad 34 "  -" ];
  row [ pad 22 "PKG key extraction"; padl 12 (human_time t_extract); pad 34 "  0.23 ms (4310/s)" ];
  row [ pad 22 "keywheel hash"; padl 12 (human_time t_hash); pad 34 "  ~1 us (1M hashes/s/core)" ];
  row [ pad 22 "sha256 (64 B)"; padl 12 (human_time t_sha); pad 34 "  -" ];
  row [ pad 22 "Bloom add (32 B token)"; padl 12 (human_time t_bloom); pad 34 "  -" ];
  row [ pad 22 "onion layer unwrap"; padl 12 (human_time t_unwrap); pad 34 "  ~0.14 ms (fitted)" ];
  row [ pad 22 "BLS sign"; padl 12 (human_time t_sign); pad 34 "  -" ];
  row [ pad 22 "G1 scalar mult"; padl 12 (human_time t_smul); pad 34 "  -" ];
  row [ pad 22 "G1 fixed-base mult"; padl 12 (human_time t_smul_fb); pad 34 "  -" ];

  (* A mixer hop's curve work, per onion: a noise layer wrapped in a batch
     of 500 for one downstream key (the comb path) or alone, and an
     onion unwrapped in a batch of 1000 (one shared inversion) or alone. *)
  let hop (pr : Params.t) =
    let ssk, spk = Dh.keygen pr rng in
    let body = Payload.encode ~mailbox:0 (String.make Wire.dial_token_size 'd') in
    let noise = Array.init 500 (fun _ -> (Onion.secrets pr rng ~layers:1, body)) in
    let onions = Array.init 1000 (fun _ -> Onion.wrap pr rng ~server_pks:[ spk ] body) in
    let per n t = t /. float_of_int n in
    ( per 500 (time_ns ~quota:2.0 "wrap-batch" (fun () -> Onion.wrap_batch pr ~server_pks:[ spk ] noise)),
      time_ns "wrap" (fun () -> Onion.wrap pr rng ~server_pks:[ spk ] body),
      per 1000 (time_ns ~quota:2.0 "unwrap-batch" (fun () -> Onion.unwrap_batch pr ~sk:ssk onions)),
      time_ns "unwrap" (fun () -> Onion.unwrap pr ~sk:ssk onions.(0)) )
  in
  let tw, tw1, tu, tu1 = hop (Params.test ()) and pw, pw1, pu, pu1 = hop pr in
  header "Mixer hop, per onion (one downstream key)";
  row [ pad 34 "operation"; padl 12 "test curve"; padl 12 "production" ];
  List.iter
    (fun (name, t, p) -> row [ pad 34 name; padl 12 (human_time t); padl 12 (human_time p) ])
    [ ("noise layer, batch of 500 per key", tw, pw);
      ("noise layer, single Onion.wrap", tw1, pw1);
      ("unwrap, batch of 1000", tu, pu);
      ("unwrap, single Onion.unwrap", tu1, pu1) ];

  header "Mailbox scan, per ciphertext (Ibe.decrypt_batch under a prepared key)";
  print_by_curve "ciphertext" (scan_costs (Params.test ())) (scan_costs pr);
  header "Legendre symbol of a norm (the trace-zero sign rule)";
  print_by_curve "method" (legendre_costs (Params.test ()).Params.fp) (legendre_costs pr.Params.fp);

  header "Derived rates";
  Printf.printf "IBE decryptions/s/core: %.0f (paper: 800)\n" (1e9 /. t_ibe_dec);
  Printf.printf "keywheel hashes/s/core: %.0f (paper: ~1,000,000)\n" (1e9 /. t_hash);
  Printf.printf "PKG extractions/s/core: %.0f (paper: 4310)\n" (1e9 /. t_extract);
  Printf.printf "=> 1M-user key extraction on one PKG: %.0f s (paper: 232 s)\n"
    (1e6 *. t_extract /. 1e9);

  header "Mailbox scan projections (paper Section 8.2)";
  let scan_requests = 24_000 in
  (* the scan as clients run it, priced as Costmodel prices it: one key
     preparation per mailbox, then full batches of misses *)
  let local = Costmodel.measure_local pr in
  let one_core =
    {
      Costmodel.paper_machine with
      client_cores = 1;
      t_ibe_prepare = local.Costmodel.t_ibe_prepare;
      t_ibe_decrypt = local.Costmodel.t_ibe_decrypt;
    }
  in
  Printf.printf "add-friend mailbox of %d requests: %.1f s on 1 core (paper: 8 s on 4 cores)\n"
    scan_requests
    (Costmodel.addfriend_scan_seconds one_core ~requests:(float_of_int scan_requests));
  let wheel = Keywheel.create ~owner:"bench@example.org" in
  for i = 1 to 1000 do
    Keywheel.add_friend wheel
      ~email:(Printf.sprintf "friend%d@x" i)
      ~secret:(Drbg.bytes rng 32) ~round:0
  done;
  let filter = Bloom.create ~expected_elements:150_000 in
  let t_scan =
    time_ns "bloom-scan" (fun () ->
        Keywheel.expected_tokens wheel ~max_intents:10
        |> List.iter (fun (_, _, tok) -> ignore (Bloom.mem filter tok)))
  in
  Printf.printf "dialing scan, 1000 friends x 10 intents: %s (paper: <1 s)\n" (human_time t_scan)

let sizes () =
  let pr = Params.production () in
  header "Section 8.6: wire sizes";
  let ibe_overhead = Ibe.ciphertext_overhead pr in
  Printf.printf "friend request plaintext: %d B (paper: 244 B)\n" (Wire.request_plaintext_size pr);
  Printf.printf "IBE ciphertext overhead: %d B (paper: 64 B; BN-256 G1 points are 32 B more compact)\n"
    ibe_overhead;
  Printf.printf "friend request on the wire: %d B (paper: 308 B)\n" (Wire.request_ciphertext_size pr);
  Printf.printf "dial token: %d B, Bloom-encoded at %d bits (paper: 32 B token, 48 bits encoded)\n"
    Wire.dial_token_size Bloom.bits_per_element;
  Printf.printf "onion layer overhead: %d B per mixnet server\n" (Onion.layer_overhead pr);
  Printf.printf "compressed G1 point: %d B\n" (Curve.point_bytes pr.Params.fp)

(* §8.2 key extraction end-to-end latency with N PKGs: measured extraction +
   simulated same-region RTT, contacted sequentially as the client does. *)
let extract () =
  let pr = Params.production () in
  header "Section 8.2: combined identity-key acquisition vs number of PKGs";
  let rng = Drbg.create ~seed:"bench-extract" in
  let rtt_ms = 1.0 (* same-region EC2, as in the paper's measurement *) in
  let t_extract_ms = time_ns "extract" (fun () -> Ibe.extract pr (fst (Ibe.setup pr rng)) "x@y") /. 1e6 in
  row [ pad 8 "PKGs"; padl 14 "this impl"; padl 14 "paper" ];
  List.iter
    (fun n ->
      let ours = (float_of_int n *. (rtt_ms +. t_extract_ms)) +. 1.0 (* aggregation *) in
      let paper = match n with 3 -> "4.9 ms" | 10 -> "5.2 ms" | _ -> "-" in
      row [ pad 8 (string_of_int n); padl 14 (Printf.sprintf "%.1f ms" ours); padl 14 paper ])
    [ 1; 3; 5; 10 ];
  print_endline "(paper contacted PKGs concurrently, so its latency is nearly flat in N;";
  print_endline " ours is sequential-RTT plus this implementation's slower extraction.)"

(* Domain-pool batch paths: batch onion unwrap and batch PKG extraction at
   pool sizes 1/2/4, and small-exponent batch BLS verification against n
   independent verifies. Speedups are whatever this host actually delivers
   (a single-core container reports ~1x for the pool rows; the algorithmic
   verify_batch win is host-independent). Numbers recorded in
   BENCH_parallel.json. *)
let parallel () =
  let pr = Params.production () in
  let rng = Drbg.create ~seed:"bench-parallel" in
  header "Parallel batch paths (domain pool; --domains / ALPENHORN_DOMAINS)";
  Printf.printf "host: %d domain(s) recommended by the runtime\n"
    (Domain.recommended_domain_count ());
  Params.force_tables pr;

  (* batch onion unwrap, 64 onions *)
  let ssk, spk = Dh.keygen pr rng in
  let msg = String.make (Wire.request_plaintext_size pr) 'm' in
  let batch = Array.init 64 (fun _ -> Onion.wrap pr rng ~server_pks:[ spk ] msg) in
  let unwrap o = Onion.unwrap pr ~sk:ssk o in
  let t_seq = time_ns "unwrap-seq" (fun () -> Array.map unwrap batch) in
  row [ pad 26 "operation"; padl 12 "per batch"; padl 10 "speedup" ];
  row [ pad 26 "onion unwrap x64, seq"; padl 12 (human_time t_seq); padl 10 "1.00x" ];
  let unwrap_rows =
    List.map
      (fun d ->
        let pool = Parallel.create ~domains:d in
        let t =
          time_ns (Printf.sprintf "unwrap-%dd" d) (fun () -> Parallel.map pool unwrap batch)
        in
        Parallel.shutdown pool;
        row
          [ pad 26 (Printf.sprintf "onion unwrap x64, %dd pool" d);
            padl 12 (human_time t); padl 10 (Printf.sprintf "%.2fx" (t_seq /. t)) ];
        (d, t_seq /. t))
      [ 1; 2; 4 ]
  in

  (* batch PKG extraction, 32 requests over 16 accounts *)
  let inbox = Hashtbl.create 16 in
  let pkg =
    Pkg.create pr ~rng:(Drbg.create ~seed:"bench-pkg")
      ~send_email:(fun ~to_ ~token -> Hashtbl.replace inbox to_ token) ()
  in
  let accounts =
    Array.init 16 (fun i ->
        let email = Printf.sprintf "u%d@bench" i in
        let sk, pk = Bls.keygen pr (Drbg.create ~seed:("bench-acct-" ^ string_of_int i)) in
        (match Pkg.register pkg ~now:0 ~email ~pk with Ok () -> () | Error _ -> assert false);
        (match Pkg.confirm pkg ~now:0 ~email ~token:(Hashtbl.find inbox email) with
         | Ok () -> () | Error _ -> assert false);
        (email, sk))
  in
  let _ = Pkg.begin_round pkg ~round:1 in
  let requests =
    Array.init 32 (fun i ->
        let email, sk = accounts.(i mod 16) in
        (email, Bls.sign pr sk (Pkg.extraction_request_message ~email ~round:1)))
  in
  let extract_rows =
    List.map
      (fun d ->
        let t =
          Parallel.with_default ~domains:d (fun () ->
              time_ns (Printf.sprintf "extract-%dd" d) (fun () ->
                  Pkg.extract_batch pkg ~now:0 ~round:1 requests))
        in
        row
          [ pad 26 (Printf.sprintf "pkg extract x32, %dd pool" d);
            padl 12 (human_time t); padl 10 "" ];
        (d, t))
      [ 1; 2; 4 ]
  in

  (* batch BLS verification: algorithmic, independent of the pool. Cycle
     through enough distinct batches that the per-domain pairing FIFO
     (512 entries) cannot serve the sequential baseline from cache. *)
  let nbatches = 40 in
  let mk_batches nsigners =
    Array.init nbatches (fun k ->
        Array.init 16 (fun i ->
            let sk, pk =
              Bls.keygen pr
                (Drbg.create ~seed:(Printf.sprintf "bls-par-%d-%d" k (i mod nsigners)))
            in
            let m = Printf.sprintf "msg-%d-%d" k i in
            (pk, m, Bls.sign pr sk m)))
  in
  let distinct = mk_batches 16 in
  (* the dominant protocol shape: a small anytrust PKG set signing many
     announcements — same-key pairings collapse in verify_batch *)
  let grouped = mk_batches 3 in
  let idx = ref 0 in
  let next batches =
    let b = batches.(!idx mod nbatches) in
    incr idx;
    b
  in
  let t_verify16 =
    time_ns ~quota:2.0 "bls-verify-x16" (fun () ->
        Array.for_all (fun (pk, m, s) -> Bls.verify pr pk m s) (next distinct))
  in
  let t_batch16 =
    time_ns ~quota:2.0 "bls-verify-batch-16" (fun () -> Bls.verify_batch pr (next distinct))
  in
  let t_batch16g =
    time_ns ~quota:2.0 "bls-verify-batch-16-3s" (fun () -> Bls.verify_batch pr (next grouped))
  in
  row [ pad 30 "bls verify x16, one by one"; padl 12 (human_time t_verify16); padl 10 "1.00x" ];
  row
    [ pad 30 "bls verify_batch(16)"; padl 12 (human_time t_batch16);
      padl 10 (Printf.sprintf "%.2fx" (t_verify16 /. t_batch16)) ];
  row
    [ pad 30 "bls verify_batch(16), 3 keys"; padl 12 (human_time t_batch16g);
      padl 10 (Printf.sprintf "%.2fx" (t_verify16 /. t_batch16g)) ];
  (* Alpenhorn batches are announcements signed by the small anytrust PKG
     set (3 servers here), so the 3-key row is the protocol-shape
     acceptance metric; all-distinct signers is the adversarial worst
     case, reported alongside. *)
  Printf.printf
    "verify_batch(16) / 16x verify ratio: %.3f (protocol shape, 3 signers; acceptance: <= 0.5)\n"
    (t_batch16g /. t_verify16);
  Printf.printf
    "verify_batch(16) / 16x verify ratio: %.3f (worst case, 16 distinct signers)\n"
    (t_batch16 /. t_verify16);

  (* machine-readable line for transcribing into BENCH_parallel.json *)
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"unwrap_x64_seq_ms\":";
  Buffer.add_string b (Printf.sprintf "%.3f" (t_seq /. 1e6));
  List.iter
    (fun (d, s) -> Buffer.add_string b (Printf.sprintf ",\"unwrap_speedup_%dd\":%.2f" d s))
    unwrap_rows;
  List.iter
    (fun (d, t) -> Buffer.add_string b (Printf.sprintf ",\"extract_x32_%dd_ms\":%.3f" d (t /. 1e6)))
    extract_rows;
  Buffer.add_string b
    (Printf.sprintf
       ",\"verify16_ms\":%.3f,\"verify_batch16_ms\":%.3f,\"verify_batch16_3keys_ms\":%.3f,\"batch_ratio\":%.3f,\"batch_ratio_distinct\":%.3f}"
       (t_verify16 /. 1e6) (t_batch16 /. 1e6) (t_batch16g /. 1e6) (t_batch16g /. t_verify16)
       (t_batch16 /. t_verify16));
  Printf.printf "json: %s\n" (Buffer.contents b)
