(* Sharded mailbox distribution (§5.1 CDN model, DESIGN.md §15): the
   Shard partition contract, union-equivalence of sharded and unsharded
   distribution, per-shard Bloom false-positive bounds, and the
   byte-identity of dial tokens across the two paths. *)

module Shard = Alpenhorn_mixnet.Shard
module Mailbox = Alpenhorn_mixnet.Mailbox
module Payload = Alpenhorn_mixnet.Payload
module Stream_writer = Alpenhorn_mixnet.Stream_writer
module Bloom = Alpenhorn_bloom.Bloom
module Sha256 = Alpenhorn_crypto.Sha256
module Parallel = Alpenhorn_parallel.Parallel

(* deterministic payload batch: [n] tokens spread over [k] mailboxes,
   bodies unique per index so multiset comparisons are meaningful *)
let batch ~seed ~n ~k =
  Array.init n (fun i ->
      let body = Sha256.digest (Printf.sprintf "%s:%d" seed i) in
      Payload.encode ~mailbox:(i * 7 mod k) body)

let property_tests =
  let open QCheck in
  let partition_arb =
    (* K in [1, 5000], S in [1, K] *)
    map
      (fun (k, s_raw) ->
        let k = 1 + (abs k mod 5000) in
        (k, 1 + (abs s_raw mod k)))
      (pair int int)
  in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"every mailbox lands in exactly one shard's range" ~count:200 partition_arb
         (fun (k, s) ->
           let t = Shard.create ~num_shards:s ~num_mailboxes:k in
           let ok = ref true in
           for m = 0 to k - 1 do
             let owner = Shard.of_mailbox t m in
             let covering = ref 0 in
             for sid = 0 to s - 1 do
               let lo, hi = Shard.mailbox_range t sid in
               if m >= lo && m < hi then begin
                 incr covering;
                 if sid <> owner then ok := false
               end
             done;
             if !covering <> 1 then ok := false
           done;
           !ok));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"shard ranges are non-empty, contiguous and exhaustive" ~count:200
         partition_arb (fun (k, s) ->
           let t = Shard.create ~num_shards:s ~num_mailboxes:k in
           let ok = ref true in
           let prev_hi = ref 0 in
           for sid = 0 to s - 1 do
             let lo, hi = Shard.mailbox_range t sid in
             if lo <> !prev_hi || hi <= lo then ok := false;
             prev_hi := hi
           done;
           !ok && !prev_hi = k));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"of_identity agrees with of_mailbox on the recipient's mailbox" ~count:100
         (pair partition_arb small_nat) (fun ((k, s), i) ->
           let t = Shard.create ~num_shards:s ~num_mailboxes:k in
           let email = Printf.sprintf "user%d@example.org" i in
           Shard.of_identity t email
           = Shard.of_mailbox t (Mailbox.mailbox_of_identity email ~num_mailboxes:k)));
  ]

(* S = K: one mailbox per shard, so the sharded filters must equal the
   unsharded ones byte for byte, on one domain and on four *)
let check_identity ~k payloads =
  let shard = Shard.create ~num_shards:k ~num_mailboxes:k in
  let plain, _ = Mailbox.distribute ~num_mailboxes:k ~mode:`Dialing payloads in
  let unsharded = Array.map Bloom.to_bytes (Mailbox.filters_exn plain) in
  List.iter
    (fun domains ->
      let sharded, _ =
        Parallel.with_default ~domains (fun () ->
            Mailbox.distribute_sharded ~shard ~mode:`Dialing payloads)
      in
      let per_shard = Mailbox.filter_shards_exn sharded in
      Alcotest.(check int) "same count" k (Array.length per_shard);
      Array.iteri
        (fun m bytes ->
          Alcotest.(check bool)
            (Printf.sprintf "%d domains: mailbox %d filter bytes" domains m)
            true
            (bytes = Bloom.to_bytes per_shard.(m)))
        unsharded)
    [ 1; 4 ]

let unit_tests =
  [
    Alcotest.test_case "create rejects degenerate partitions" `Quick (fun () ->
        List.iter
          (fun (s, k) ->
            match Shard.create ~num_shards:s ~num_mailboxes:k with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "S=%d K=%d accepted" s k)
          [ (0, 4); (-1, 4); (5, 4); (1, 0) ]);
    Alcotest.test_case "add-friend shard union equals the unsharded mailbox union" `Quick
      (fun () ->
        let k = 32 and s = 5 in
        let payloads = batch ~seed:"union" ~n:400 ~k in
        let shard = Shard.create ~num_shards:s ~num_mailboxes:k in
        let plain, dropped = Mailbox.distribute ~num_mailboxes:k ~mode:`AddFriend payloads in
        let sharded, dropped' = Mailbox.distribute_sharded ~shard ~mode:`AddFriend payloads in
        Alcotest.(check int) "same drop count" dropped dropped';
        let buckets = Mailbox.plain_exn plain in
        let blobs = Mailbox.plain_shards_exn sharded in
        Alcotest.(check int) "one blob per shard" s (Array.length blobs);
        (* decode every framed record of every shard; each is a full
           payload (header included) and must land in its shard's range *)
        let recovered = ref [] in
        Array.iteri
          (fun sid blob ->
            let lo, hi = Shard.mailbox_range shard sid in
            let ok =
              Stream_writer.iter_records blob (fun record ->
                  (match Payload.mailbox record with
                  | m when m >= lo && m < hi -> ()
                  | _ -> Alcotest.failf "record outside shard %d's range" sid);
                  recovered := record :: !recovered)
            in
            Alcotest.(check bool) "framing valid" true ok)
          blobs;
        let expected =
          Array.to_list buckets
          |> List.concat_map (fun bodies ->
                 (* unsharded buckets hold stripped bodies keyed by index;
                    re-attach nothing — compare by body multiset instead *)
                 bodies)
          |> List.sort compare
        in
        let got =
          List.filter_map (fun r -> Option.map snd (Payload.decode r)) !recovered
          |> List.sort compare
        in
        Alcotest.(check (list string)) "same payload multiset" expected got);
    Alcotest.test_case "dialing: every unsharded token is found in its shard's filter" `Quick
      (fun () ->
        let k = 24 and s = 7 in
        let payloads = batch ~seed:"dial-union" ~n:300 ~k in
        let shard = Shard.create ~num_shards:s ~num_mailboxes:k in
        let sharded, _ = Mailbox.distribute_sharded ~shard ~mode:`Dialing payloads in
        let filters = Mailbox.filter_shards_exn sharded in
        Array.iter
          (fun p ->
            match Payload.decode p with
            | None -> ()
            | Some (m, token) when m <> Payload.cover && m < k ->
              let f = filters.(Shard.of_mailbox shard m) in
              Alcotest.(check bool) "token present" true (Bloom.mem f token)
            | Some _ -> ())
          payloads);
    Alcotest.test_case "dialing: one shard per mailbox is byte-identical to unsharded" `Quick
      (fun () ->
        (* S = K: each shard covers exactly one mailbox, so the sharded
           path must reproduce the unsharded filters bit for bit — the
           strongest form of the dial-token byte-identity guarantee *)
        let k = 16 in
        let payloads = batch ~seed:"identity" ~n:256 ~k in
        let shard = Shard.create ~num_shards:k ~num_mailboxes:k in
        let plain, _ = Mailbox.distribute ~num_mailboxes:k ~mode:`Dialing payloads in
        let sharded, _ = Mailbox.distribute_sharded ~shard ~mode:`Dialing payloads in
        let unsharded = Mailbox.filters_exn plain in
        let per_shard = Mailbox.filter_shards_exn sharded in
        Alcotest.(check int) "same count" (Array.length unsharded) (Array.length per_shard);
        Array.iteri
          (fun m f ->
            Alcotest.(check string)
              (Printf.sprintf "mailbox %d filter bytes" m)
              (Bloom.to_bytes f)
              (Bloom.to_bytes per_shard.(m)))
          unsharded);
    Alcotest.test_case "dialing: S = K byte identity across gather chunks" `Quick (fun () ->
        (* 3 200 tokens per mailbox, 0-80 bytes: the first half cycles
           through every length, so a gather chunk fills at 1 024 tokens;
           the second half is 80 bytes a token, so a chunk fills its 64 KiB
           at 819. Tokens over 50 bytes stream through SHA-256. *)
        let k = 4 in
        let n = 3200 * k in
        let payloads =
          Array.init n (fun i ->
              let len = if i < n / 2 then i mod 81 else 80 in
              let d = Sha256.digest (Printf.sprintf "chunks:%d" i) in
              Payload.encode ~mailbox:(i * 7 mod k) (String.sub (d ^ d ^ d) 0 len))
        in
        check_identity ~k payloads);
    Alcotest.test_case "dialing: a token longer than the gather buffer is packed" `Quick
      (fun () ->
        (* a 65 536-byte token fills the buffer exactly; 65 537 and 65 538
           bytes are added straight from their payloads *)
        let k = 2 in
        let payloads =
          Array.init 600 (fun i ->
              let body =
                if i mod 100 = 50 then String.make (65536 + (i mod 3)) (Char.chr (i mod 256))
                else Sha256.digest (Printf.sprintf "long:%d" i)
              in
              Payload.encode ~mailbox:(i mod k) body)
        in
        check_identity ~k payloads);
    Alcotest.test_case "dialing distribution allocates nothing per token" `Quick (fun () ->
        let n = 20_000 and s = 4 in
        let payloads = batch ~seed:"alloc" ~n ~k:64 in
        let shard = Shard.create ~num_shards:s ~num_mailboxes:64 in
        Parallel.with_default ~domains:1 (fun () ->
            let run () = Mailbox.distribute_sharded ~shard ~mode:`Dialing payloads in
            (* the first call allocates this domain's gather buffer *)
            ignore (run ());
            let words () =
              let _, promoted, major = Gc.counters () in
              Gc.minor_words () +. major -. promoted
            in
            let w0 = words () in
            let content, _ = run () in
            let used = words () -. w0 in
            (* the shard id and order arrays, each n words and a header,
               the filters' bit arrays and records, and O(S) words *)
            let filters =
              Array.fold_left
                (fun acc f -> acc + (Bloom.size_bytes f / 8) + 8)
                0 (Mailbox.filter_shards_exn content)
            in
            let allowed = (2 * (n + 1)) + filters + (8 * s) + 16 in
            Alcotest.(check bool)
              (Printf.sprintf "%.0f words <= %d" used allowed)
              true
              (used <= float_of_int allowed)));
    Alcotest.test_case "per-shard Bloom false-positive estimate honors the §5.2 bound" `Quick
      (fun () ->
        let k = 40 and s = 4 in
        let payloads = batch ~seed:"fp" ~n:2000 ~k in
        let shard = Shard.create ~num_shards:s ~num_mailboxes:k in
        let sharded, _ = Mailbox.distribute_sharded ~shard ~mode:`Dialing payloads in
        Array.iter
          (fun f ->
            let est = Bloom.false_positive_estimate f in
            Alcotest.(check bool)
              (Printf.sprintf "estimate %g within bound" est)
              true
              (est <= Bloom.target_fp_rate *. 2.))
          (Mailbox.filter_shards_exn sharded));
    Alcotest.test_case "sharded_size_bytes matches the filters" `Quick (fun () ->
        let k = 12 and s = 3 in
        let payloads = batch ~seed:"sizes" ~n:120 ~k in
        let shard = Shard.create ~num_shards:s ~num_mailboxes:k in
        let sharded, _ = Mailbox.distribute_sharded ~shard ~mode:`Dialing payloads in
        let sizes = Mailbox.sharded_size_bytes sharded in
        let filters = Mailbox.filter_shards_exn sharded in
        Array.iteri
          (fun i f -> Alcotest.(check int) "size" (Bloom.size_bytes f) sizes.(i))
          filters);
    Alcotest.test_case "cover traffic and out-of-range ids are dropped identically" `Quick
      (fun () ->
        let k = 8 in
        let payloads =
          Array.append (batch ~seed:"drop" ~n:50 ~k)
            [|
              Payload.encode ~mailbox:Payload.cover "";
              Payload.encode ~mailbox:(k + 3) "out of range";
              "short";
            |]
        in
        let shard = Shard.create ~num_shards:2 ~num_mailboxes:k in
        let _, dropped = Mailbox.distribute ~num_mailboxes:k ~mode:`Dialing payloads in
        let _, dropped' = Mailbox.distribute_sharded ~shard ~mode:`Dialing payloads in
        Alcotest.(check int) "same drops" dropped dropped';
        Alcotest.(check int) "three dropped" 3 dropped');
  ]

let suite = unit_tests @ property_tests
