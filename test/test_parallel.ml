(* Parallel pool: map semantics, domain-safety hammer, determinism. *)

module Parallel = Alpenhorn_parallel.Parallel
module Params = Alpenhorn_pairing.Params
module Pairing = Alpenhorn_pairing.Pairing
module Fp2 = Alpenhorn_pairing.Fp2
module Tel = Alpenhorn_telemetry.Telemetry
module Events = Alpenhorn_telemetry.Events
module Chain = Alpenhorn_mixnet.Chain
module Onion = Alpenhorn_mixnet.Onion
module Payload = Alpenhorn_mixnet.Payload
module Mailbox = Alpenhorn_mixnet.Mailbox
module Drbg = Alpenhorn_crypto.Drbg

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
                Alcotest.(check bool) "memo stable" true (Fp2.equal a b);
                Alcotest.(check bool)
                  (Printf.sprintf "pairing %d correct under contention" i)
                  true
                  (Fp2.equal a expected.(i mod 8)))
              out);
        Alcotest.(check int) "counter exact" n (Tel.Counter.value c);
        Alcotest.(check int) "no events lost" n (Events.length ev + Events.dropped ev);
        let snap = Tel.Histogram.snapshot h in
        Alcotest.(check int) "histogram count exact" n snap.Tel.Histogram.count);
  ]

(* Satellite: pool size must not affect results. The same seeded chain
   round is run at 1, 2 and 4 domains; mailbox contents must be
   byte-identical and the event-log narrative identical. *)
let determinism_tests =
  [
    Alcotest.test_case "chain round identical at 1/2/4 domains" `Quick (fun () ->
        let pr = p () in
        Pairing.warmup pr;
        let run domains =
          Parallel.with_default ~domains (fun () ->
              let rng = Drbg.create ~seed:"chain-det" in
              let chain = Chain.create pr ~rng ~chain_length:3 in
              let pks = Chain.begin_round chain in
              let batch =
                Array.init 12 (fun i ->
                    Onion.wrap pr rng ~server_pks:pks
                      (Payload.encode ~mailbox:(i mod 4) (Printf.sprintf "det-%02d" i)))
              in
              Events.clear Events.default;
              let mailboxes, stats =
                Chain.run_round chain ~mode:`AddFriend ~noise_mu:2.0 ~laplace_b:0.0
                  ~num_mailboxes:4
                  ~noise_body:(fun ~mailbox:_ -> "nnnn")
                  batch
              in
              let names =
                List.map (fun e -> e.Events.name) (Events.to_list Events.default)
              in
              (Mailbox.plain_exn mailboxes, stats, names))
        in
        let base_boxes, base_stats, base_names = run 1 in
        Alcotest.(check int) "baseline real_in" 12 base_stats.Chain.real_in;
        List.iter
          (fun domains ->
            let boxes, stats, names = run domains in
            Alcotest.(check bool)
              (Printf.sprintf "mailboxes byte-identical at %d domains" domains)
              true (boxes = base_boxes);
            Alcotest.(check int)
              (Printf.sprintf "stats identical at %d domains" domains)
              base_stats.Chain.real_in stats.Chain.real_in;
            Alcotest.(check (list string))
              (Printf.sprintf "event narrative identical at %d domains" domains)
              base_names names)
          [ 2; 4 ]);
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

let suite = map_semantics @ hammer_tests @ determinism_tests
