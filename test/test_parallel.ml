(* Parallel pool: map semantics, domain-safety hammer, determinism. *)

module Parallel = Alpenhorn_parallel.Parallel
module Params = Alpenhorn_pairing.Params
module Pairing = Alpenhorn_pairing.Pairing
module Tel = Alpenhorn_telemetry.Telemetry
module Events = Alpenhorn_telemetry.Events
module Chain = Alpenhorn_mixnet.Chain
module Onion = Alpenhorn_mixnet.Onion
module Payload = Alpenhorn_mixnet.Payload
module Mailbox = Alpenhorn_mixnet.Mailbox
module Drbg = Alpenhorn_crypto.Drbg
module Sha256 = Alpenhorn_crypto.Sha256
module Bloom = Alpenhorn_bloom.Bloom

let params = lazy (Params.test ())
let p () = Lazy.force params

let with_pool domains f =
  let pool = Parallel.create ~domains in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> f pool)

let map_semantics =
  [
    Alcotest.test_case "map matches Array.map across pool sizes" `Quick (fun () ->
        let f x = (x * 7919) lxor (x lsr 3) in
        List.iter
          (fun domains ->
            with_pool domains (fun pool ->
                List.iter
                  (fun n ->
                    let input = Array.init n (fun i -> i) in
                    Alcotest.(check (array int))
                      (Printf.sprintf "%d domains, %d items" domains n)
                      (Array.map f input) (Parallel.map pool f input))
                  [ 0; 1; 7; 100 ]))
          [ 1; 2; 4 ]);
    Alcotest.test_case "map_list preserves order" `Quick (fun () ->
        with_pool 4 (fun pool ->
            let input = List.init 33 string_of_int in
            Alcotest.(check (list string))
              "order" (List.map (fun s -> s ^ "!") input)
              (Parallel.map_list pool (fun s -> s ^ "!") input)));
    Alcotest.test_case "exception in f propagates" `Quick (fun () ->
        with_pool 4 (fun pool ->
            Alcotest.check_raises "raised" (Failure "boom") (fun () ->
                ignore
                  (Parallel.map pool
                     (fun i -> if i = 13 then failwith "boom" else i)
                     (Array.init 40 (fun i -> i))))));
    Alcotest.test_case "nested map runs sequentially, no deadlock" `Quick (fun () ->
        with_pool 4 (fun pool ->
            let out =
              Parallel.map pool
                (fun i ->
                  Array.fold_left ( + ) 0
                    (Parallel.map pool (fun j -> (i * 10) + j) (Array.init 5 (fun j -> j))))
                (Array.init 8 (fun i -> i))
            in
            Alcotest.(check (array int))
              "nested results"
              (Array.init 8 (fun i -> (i * 50) + 10))
              out));
    Alcotest.test_case "shutdown is idempotent, map falls back" `Quick (fun () ->
        let pool = Parallel.create ~domains:3 in
        Parallel.shutdown pool;
        Parallel.shutdown pool;
        Alcotest.(check (array int))
          "post-shutdown map" [| 2; 4 |]
          (Parallel.map pool (fun x -> x * 2) [| 1; 2 |]));
  ]

(* Satellite: a 4-domain hammer over shared state — the per-domain pairing
   cache, atomic telemetry counters, the event ring and a histogram — all
   exercised concurrently, with exact totals checked afterwards. Workers
   only return values: Alcotest's checks print through Format, whose
   queue is not safe to share between domains, so the submitting domain
   checks everything. *)
let hammer_tests =
  [
    Alcotest.test_case "4-domain hammer: pair_cached + telemetry" `Quick (fun () ->
        let pr = p () in
        Pairing.warmup pr;
        let reg = Tel.create () in
        let c = Tel.Counter.v reg "hammer.items" in
        let h = Tel.Histogram.v reg "hammer.obs" in
        let ev = Events.create ~capacity:8192 reg in
        let rng = Drbg.create ~seed:"hammer" in
        let pts =
          Array.init 8 (fun _ -> Pairing.hash_to_group pr (Drbg.bytes rng 16))
        in
        let expected =
          Array.map (fun pt -> Pairing.pair pr pt pr.Params.g) pts
        in
        let n = 64 in
        with_pool 4 (fun pool ->
            let out =
              Parallel.map pool
                (fun i ->
                  Tel.Counter.inc c;
                  Tel.Histogram.observe h (float_of_int i);
                  Events.log ev ~detail:(string_of_int i) "hammer.tick";
                  let pt = pts.(i mod 8) in
                  (* hit the per-domain memo twice: miss then hit *)
                  let a = Pairing.pair_cached pr pt pr.Params.g in
                  let b = Pairing.pair_cached pr pt pr.Params.g in
                  (a, b))
                (Array.init n (fun i -> i))
            in
            Array.iteri
              (fun i (a, b) ->
                Alcotest.(check bool) "memo stable" true (Pairing.gt_equal a b);
                Alcotest.(check bool)
                  (Printf.sprintf "pairing %d correct under contention" i)
                  true
                  (Pairing.gt_equal a expected.(i mod 8)))
              out);
        Alcotest.(check int) "counter exact" n (Tel.Counter.value c);
        Alcotest.(check int) "no events lost" n (Events.length ev + Events.dropped ev);
        let snap = Tel.Histogram.snapshot h in
        Alcotest.(check int) "histogram count exact" n snap.Tel.Histogram.count);
  ]

(* The hashing kernel's scratch and the Bloom filter's digest words are
   domain-local: filters are built per shard on the pool, and clients probe
   a shared filter from pool domains. Every job builds a filter, hashes its
   tokens one-block into words and probes a shared filter, on four domains
   at once; the submitting domain compares each job with its one-domain
   result. *)
let hash_hammer_tests =
  [
    Alcotest.test_case "4-domain hammer: Bloom filters + one-block digests" `Quick (fun () ->
        let rng = Drbg.create ~seed:"hash-hammer" in
        let jobs = 16 and per_job = 256 in
        let tokens = Bytes.of_string (Drbg.bytes rng (32 * jobs * per_job)) in
        let shared = Bloom.create ~expected_elements:(jobs * per_job / 2) in
        for t = 0 to (jobs * per_job / 2) - 1 do
          Bloom.add_sub shared tokens ~pos:(32 * t) ~len:32
        done;
        let job j =
          let f = Bloom.create ~expected_elements:per_job in
          let digests = Array.make (8 * per_job) 0 and d = Array.make 8 0 and hits = ref 0 in
          for t = 0 to per_job - 1 do
            let pos = 32 * ((j * per_job) + t) in
            Bloom.add_sub f tokens ~pos ~len:32;
            Sha256.digest_words_into d ~prefix:"hammer" tokens ~pos ~len:32;
            Array.blit d 0 digests (8 * t) 8;
            if Bloom.mem_sub shared tokens ~pos ~len:32 then incr hits
          done;
          (Bloom.to_bytes f, digests, !hits)
        in
        let expected = Array.init jobs job in
        with_pool 4 (fun pool ->
            for round = 1 to 3 do
              let got = Parallel.map pool job (Array.init jobs Fun.id) in
              Array.iteri
                (fun j (filter, digests, hits) ->
                  let e_filter, e_digests, e_hits = expected.(j) in
                  let what = Printf.sprintf "round %d job %d" round j in
                  Alcotest.(check bool) (what ^ " filter bytes") true (String.equal e_filter filter);
                  Alcotest.(check (array int)) (what ^ " digests") e_digests digests;
                  Alcotest.(check int) (what ^ " shared-filter hits") e_hits hits)
                got
            done);
        (* the first half of the jobs' tokens went into the shared filter *)
        Array.iteri
          (fun j (_, _, hits) -> if j < jobs / 2 then Alcotest.(check int) "members found" per_job hits)
          expected);
  ]

(* Satellite: pool size must not affect results. The same seeded chain
   round is run at 1, 2 and 4 domains; mailbox contents must be
   byte-identical and the event-log narrative identical. *)
let chain_round_identical ~noise_mu () =
  let pr = p () in
  Pairing.warmup pr;
  let run domains =
    Parallel.with_default ~domains (fun () ->
        let rng = Drbg.create ~seed:"chain-det" in
        let chain = Test_mixnet.local_chain pr ~rng 3 in
        let pks = Chain.begin_round chain in
        let batch =
          Array.init 12 (fun i ->
              Onion.wrap pr rng ~server_pks:pks
                (Payload.encode ~mailbox:(i mod 4) (Printf.sprintf "det-%02d" i)))
        in
        Events.clear Events.default;
        let final, noise, _ =
          Chain.mix chain ~noise_mu ~laplace_b:0.0 ~num_mailboxes:4
            ~noise:(fun ~mailbox:_ -> "nnnn")
            (Array.map (fun onion -> (onion, None)) batch)
        in
        let mailboxes, dropped = Mailbox.distribute ~num_mailboxes:4 ~mode:`AddFriend final in
        let names =
          List.map (fun e -> e.Events.name) (Events.to_list Events.default)
        in
        (* real messages in, noise added, dropped *)
        (Mailbox.plain_exn mailboxes, (Array.length final - noise, noise, dropped), names))
  in
  let base_boxes, ((base_real, _, _) as base_stats), base_names = run 1 in
  Alcotest.(check int) "baseline real_in" 12 base_real;
  List.iter
    (fun domains ->
      let boxes, stats, names = run domains in
      Alcotest.(check bool)
        (Printf.sprintf "mailboxes byte-identical at %d domains" domains)
        true (boxes = base_boxes);
      Alcotest.(check (triple int int int))
        (Printf.sprintf "stats identical at %d domains" domains)
        base_stats stats;
      Alcotest.(check (list string))
        (Printf.sprintf "event narrative identical at %d domains" domains)
        base_names names)
    [ 2; 4 ]

let determinism_tests =
  [
    Alcotest.test_case "chain round identical at 1/2/4 domains" `Quick
      (chain_round_identical ~noise_mu:2.0);
    Alcotest.test_case "with_default restores the previous pool" `Quick (fun () ->
        let before = Parallel.size (Parallel.get ()) in
        Parallel.with_default ~domains:3 (fun () ->
            Alcotest.(check int) "inside" 3 (Parallel.size (Parallel.get ())));
        Alcotest.(check int) "restored" before (Parallel.size (Parallel.get ())));
    Alcotest.test_case "default size comes from ALPENHORN_DOMAINS" `Quick (fun () ->
        let expected =
          match Sys.getenv_opt "ALPENHORN_DOMAINS" with
          | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 1)
          | None -> 1
        in
        Alcotest.(check int) "env parse" expected (Parallel.default_size_from_env ()));
  ]

(* 64 noise per mailbox and server: the hops wrap their noise on combs,
   and the later hops unwrap more than one curve batch of onions *)
let comb_noise_tests =
  [
    Alcotest.test_case "chain round at 64 noise identical at 1/2/4 domains" `Quick
      (chain_round_identical ~noise_mu:64.0);
  ]

let suite = map_semantics @ hammer_tests @ hash_hammer_tests @ determinism_tests @ comb_noise_tests
