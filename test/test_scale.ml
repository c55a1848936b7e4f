(* Million-user round machinery at test scale (DESIGN.md §15): the
   synthetic Scale driver's invariants, the bounded Stream_writer, the
   pool's chunked map_range, and the sharded dialing deployment's
   equivalence with the per-mailbox one. *)

module Scale = Alpenhorn_sim.Scale
module Stream_writer = Alpenhorn_mixnet.Stream_writer
module Parallel = Alpenhorn_parallel.Parallel
module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Pkg = Alpenhorn_pkg.Pkg

let writer_tests =
  [
    Alcotest.test_case "writer never buffers past its capacity" `Quick (fun () ->
        let sink, total = Stream_writer.counting_sink () in
        let w = Stream_writer.create ~capacity:64 sink in
        for i = 0 to 99 do
          Stream_writer.write w (String.make (1 + (i * 13 mod 150)) 'x')
        done;
        Stream_writer.flush w;
        Alcotest.(check bool) "peak <= capacity" true (Stream_writer.peak_buffered w <= 64);
        Alcotest.(check int) "sink saw every byte" (Stream_writer.written w) (total ()));
    Alcotest.test_case "record framing round-trips through the sink" `Quick (fun () ->
        let buf = Buffer.create 256 in
        let w = Stream_writer.create ~capacity:16 (Stream_writer.buffer_sink buf) in
        let records = [ ""; "a"; String.make 100 'b'; "end" ] in
        List.iter (Stream_writer.write_record w) records;
        Stream_writer.flush w;
        let got, ok = Stream_writer.fold_records (Buffer.contents buf) (fun acc r -> r :: acc) [] in
        Alcotest.(check bool) "valid framing" true ok;
        Alcotest.(check (list string)) "same records in order" records (List.rev got));
    Alcotest.test_case "truncated blob is reported, not crashed on" `Quick (fun () ->
        let buf = Buffer.create 64 in
        let w = Stream_writer.create (Stream_writer.buffer_sink buf) in
        Stream_writer.write_record w "whole record";
        Stream_writer.flush w;
        let blob = Buffer.contents buf in
        let truncated = String.sub blob 0 (String.length blob - 3) in
        let seen = ref 0 in
        let ok = Stream_writer.iter_records truncated (fun _ -> incr seen) in
        Alcotest.(check bool) "invalid" false ok;
        Alcotest.(check int) "no partial record delivered" 0 !seen);
  ]

let parallel_tests =
  [
    Alcotest.test_case "map_range covers every index exactly once" `Quick (fun () ->
        Parallel.with_default ~domains:4 (fun () ->
            let pool = Parallel.get () in
            let out = Parallel.map_range pool (fun i -> i * i) 1000 in
            Alcotest.(check int) "length" 1000 (Array.length out);
            Array.iteri (fun i v -> Alcotest.(check int) "value" (i * i) v) out));
    Alcotest.test_case "map_range of zero width is empty" `Quick (fun () ->
        let pool = Parallel.get () in
        Alcotest.(check int) "empty" 0 (Array.length (Parallel.map_range pool (fun i -> i) 0)));
  ]

let scale_tests =
  [
    Alcotest.test_case "small synthetic round stays within budget, no false negatives" `Quick
      (fun () ->
        let r = Scale.run ~seed:"t1" ~clients:5000 ~shards:4 ~noise_per_mailbox:500
            ~scan_sample:512 () in
        Alcotest.(check int) "clients" 5000 r.Scale.clients;
        Alcotest.(check int) "shards" 4 r.Scale.shards;
        Alcotest.(check bool) "mailboxes >= shards" true (r.Scale.num_mailboxes >= r.Scale.shards);
        Alcotest.(check int) "tokens = real + noise" r.Scale.tokens
          (r.Scale.active + r.Scale.noise);
        Alcotest.(check bool) "within memory budget" true (Scale.within_budget r);
        Alcotest.(check int) "every dialed scanner finds its token" r.Scale.scan_dialed
          r.Scale.scan_hits;
        Alcotest.(check bool) "writer bounded" true
          (r.Scale.writer_peak_bytes <= Stream_writer.default_capacity);
        Alcotest.(check bool) "download is one shard, not the round" true
          (r.Scale.bytes_per_client < r.Scale.total_filter_bytes
          || r.Scale.shards = 1));
    Alcotest.test_case "deterministic for a fixed seed" `Quick (fun () ->
        let a = Scale.run ~seed:"t2" ~clients:3000 ~shards:3 ~noise_per_mailbox:300
            ~scan_sample:256 () in
        let b = Scale.run ~seed:"t2" ~clients:3000 ~shards:3 ~noise_per_mailbox:300
            ~scan_sample:256 () in
        Alcotest.(check int) "tokens" a.Scale.tokens b.Scale.tokens;
        Alcotest.(check int) "bytes/client" a.Scale.bytes_per_client b.Scale.bytes_per_client;
        Alcotest.(check int) "total bytes" a.Scale.total_filter_bytes b.Scale.total_filter_bytes;
        Alcotest.(check int) "scan hits" a.Scale.scan_hits b.Scale.scan_hits;
        Alcotest.(check int) "scan dialed" a.Scale.scan_dialed b.Scale.scan_dialed;
        Alcotest.(check int) "false positives" a.Scale.scan_false_positives
          b.Scale.scan_false_positives);
    Alcotest.test_case "budget is affine in the client count" `Quick (fun () ->
        Alcotest.(check int) "formula"
          (Scale.budget_slack_words + (Scale.budget_per_client_words * 1_000_000))
          (Scale.budget_words ~clients:1_000_000);
        Alcotest.check_raises "zero clients" (Invalid_argument "Scale.run: clients") (fun () ->
            ignore (Scale.run ~clients:0 ())));
  ]

(* The sharded dialing deployment must deliver exactly the calls the
   per-mailbox one does: same config, seed and dial pattern, only
   [dial_shards] differs. *)
let deployment_tests =
  let setup ~config ~seed =
    let d = Deployment.create ~config ~seed in
    let clients =
      List.map
        (fun email -> Deployment.new_client d ~email ~callbacks:Client.null_callbacks)
        [ "alice@x"; "bob@x"; "carol@x"; "dave@x" ]
    in
    List.iter
      (fun c ->
        match Deployment.register d c with
        | Ok () -> ()
        | Error e -> Alcotest.failf "register: %s" (Pkg.error_to_string e))
      clients;
    (d, clients)
  in
  let befriend d a b =
    Client.add_friend a ~email:(Client.email b) ();
    for _ = 1 to 2 do
      ignore (Deployment.run_addfriend_round d ())
    done;
    Alcotest.(check bool) "befriended" true (Client.is_friend a ~email:(Client.email b))
  in
  let dial_calls ~config ~seed =
    let d, clients = setup ~config ~seed in
    let alice = List.nth clients 0
    and bob = List.nth clients 1
    and carol = List.nth clients 2 in
    befriend d alice bob;
    befriend d carol alice;
    Client.call alice ~email:"bob@x" ~intent:1;
    Client.call carol ~email:"alice@x" ~intent:2;
    let stats = List.init 2 (fun _ -> Deployment.run_dialing_round d ()) in
    let calls = List.concat_map (fun s -> s.Deployment.calls) stats in
    (List.sort compare calls, List.nth stats 1)
  in
  [
    Alcotest.test_case "sharded dialing delivers the same calls as per-mailbox" `Quick (fun () ->
        let calls0, s0 = dial_calls ~config:Config.test ~seed:"shdep" in
        let calls3, s3 =
          dial_calls ~config:{ Config.test with dial_shards = 3 } ~seed:"shdep"
        in
        Alcotest.(check int) "both delivered two calls" 2 (List.length calls0);
        Alcotest.(check bool) "same call events" true (calls0 = calls3);
        Alcotest.(check int) "same submissions" s0.Deployment.tokens_in s3.Deployment.tokens_in;
        Alcotest.(check int) "one download per shard" 3
          (Array.length s3.Deployment.filter_bytes));
    Alcotest.test_case "offline client catches up from the sharded archive" `Quick (fun () ->
        let config = { Config.test with dial_shards = 2 } in
        let d, clients = setup ~config ~seed:"shcu" in
        let alice = List.nth clients 0 and bob = List.nth clients 1 in
        befriend d alice bob;
        Client.call alice ~email:"bob@x" ~intent:3;
        for _ = 1 to 3 do
          ignore (Deployment.run_dialing_round d ~participants:[ alice ] ())
        done;
        let events = Deployment.catch_up_client d bob in
        Alcotest.(check bool) "archived shard replayed the call" true
          (List.exists
             (function
               | Client.Incoming_call { peer = "alice@x"; intent = 3; _ } -> true
               | _ -> false)
             events));
  ]

(* Recorded once, before Scale.run moved onto Mailbox.distribute_sharded,
   and never edited: every deterministic result field for two shapes, one
   with explicit shards and one with the default shard count. *)
let pinned_tests =
  [
    Alcotest.test_case "result fields pinned for two fixed shapes" `Quick (fun () ->
        let fields r =
          Scale.
            [
              r.tokens;
              r.noise;
              r.num_mailboxes;
              r.bytes_per_client;
              r.total_filter_bytes;
              r.scan_dialed;
              r.scan_hits;
              r.scan_false_positives;
            ]
        in
        let a =
          Scale.run ~seed:"pin-a" ~clients:6000 ~shards:5 ~noise_per_mailbox:400
            ~scan_sample:700 ()
        in
        Alcotest.(check (list int)) "6000 clients, 5 shards"
          [ 2300; 2000; 5; 2808; 13860; 35; 35; 0 ] (fields a);
        let b =
          Scale.run ~seed:"pin-b" ~clients:140_000 ~noise_per_mailbox:900 ~active_fraction:0.08
            ~scan_sample:1500 ()
        in
        Alcotest.(check int) "default shard count" 2 b.Scale.shards;
        Alcotest.(check (list int)) "140000 clients, default shards"
          [ 22000; 10800; 12; 66402; 132024; 120; 120; 0 ] (fields b));
  ]

let suite = writer_tests @ parallel_tests @ scale_tests @ deployment_tests @ pinned_tests
