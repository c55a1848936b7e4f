(* Bloom filter: no false negatives, bounded false positives, wire format. *)

module Bloom = Alpenhorn_bloom.Bloom
module Drbg = Alpenhorn_crypto.Drbg
module Sha256 = Alpenhorn_crypto.Sha256
module Util = Alpenhorn_crypto.Util

(* SHA-256 of a filter's wire bytes: the fixtures below pin every index the
   filter sets, so a change to the digest, to h1/h2 or to the index walk
   shows up even when the server and the client paths change together *)
let filter_hash f = Util.to_hex (Sha256.digest (Bloom.to_bytes f))

let unit_tests =
  [
    Alcotest.test_case "paper operating point" `Quick (fun () ->
        Alcotest.(check int) "48 bits/element" 48 Bloom.bits_per_element;
        Alcotest.(check (float 1e-12)) "fp target" 1e-10 Bloom.target_fp_rate;
        let f = Bloom.create ~expected_elements:1000 in
        Alcotest.(check int) "sized" (48 * 1000) (Bloom.size_bits f);
        Alcotest.(check int) "hashes" 33 (Bloom.num_hashes f));
    Alcotest.test_case "membership basics" `Quick (fun () ->
        let f = Bloom.create ~expected_elements:10 in
        Alcotest.(check bool) "empty" false (Bloom.mem f "token");
        Bloom.add f "token";
        Alcotest.(check bool) "added" true (Bloom.mem f "token");
        Alcotest.(check int) "count" 1 (Bloom.count f));
    Alcotest.test_case "no false negatives over 5000 tokens" `Quick (fun () ->
        let rng = Drbg.create ~seed:"bloom-neg" in
        let f = Bloom.create ~expected_elements:5000 in
        let tokens = List.init 5000 (fun _ -> Drbg.bytes rng 32) in
        List.iter (Bloom.add f) tokens;
        List.iter (fun t -> Alcotest.(check bool) "present" true (Bloom.mem f t)) tokens);
    Alcotest.test_case "false positive rate is tiny at design load" `Quick (fun () ->
        let rng = Drbg.create ~seed:"bloom-fp" in
        let f = Bloom.create ~expected_elements:2000 in
        for _ = 1 to 2000 do
          Bloom.add f (Drbg.bytes rng 32)
        done;
        (* with target 1e-10, 20k probes should hit zero false positives *)
        let fps = ref 0 in
        for _ = 1 to 20_000 do
          if Bloom.mem f (Drbg.bytes rng 32) then incr fps
        done;
        Alcotest.(check int) "no false positives observed" 0 !fps;
        Alcotest.(check bool) "estimate below target" true
          (Bloom.false_positive_estimate f < 1e-8));
    Alcotest.test_case "serialization roundtrip preserves membership" `Quick (fun () ->
        let rng = Drbg.create ~seed:"bloom-ser" in
        let f = Bloom.create ~expected_elements:100 in
        let tokens = List.init 100 (fun _ -> Drbg.bytes rng 32) in
        List.iter (Bloom.add f) tokens;
        match Bloom.of_bytes (Bloom.to_bytes f) with
        | None -> Alcotest.fail "decode failed"
        | Some g ->
          Alcotest.(check int) "bits" (Bloom.size_bits f) (Bloom.size_bits g);
          Alcotest.(check int) "count" (Bloom.count f) (Bloom.count g);
          List.iter (fun t -> Alcotest.(check bool) "member" true (Bloom.mem g t)) tokens);
    Alcotest.test_case "of_bytes rejects garbage" `Quick (fun () ->
        Alcotest.(check bool) "empty" true (Bloom.of_bytes "" = None);
        Alcotest.(check bool) "short" true (Bloom.of_bytes "abc" = None);
        Alcotest.(check bool) "truncated" true
          (let f = Bloom.create ~expected_elements:10 in
           let b = Bloom.to_bytes f in
           Bloom.of_bytes (String.sub b 0 (String.length b - 1)) = None));
    Alcotest.test_case "hash count is bounded" `Quick (fun () ->
        Alcotest.(check int) "max_hashes" 64 Bloom.max_hashes;
        Alcotest.check_raises "create_custom past the bound" (Invalid_argument "Bloom.create_custom")
          (fun () -> ignore (Bloom.create_custom ~bits:256 ~hashes:(Bloom.max_hashes + 1)));
        let enc = Bloom.to_bytes (Bloom.create_custom ~bits:256 ~hashes:Bloom.max_hashes) in
        let with_k k = String.sub enc 0 4 ^ Util.be32 k ^ String.sub enc 8 (String.length enc - 8) in
        Alcotest.(check bool) "k = max_hashes decodes" true (Bloom.of_bytes enc <> None);
        Alcotest.(check bool) "k = max_hashes + 1 rejected" true
          (Bloom.of_bytes (with_k (Bloom.max_hashes + 1)) = None);
        Alcotest.(check bool) "k = 2^32 - 1 rejected" true (Bloom.of_bytes (with_k 0xffffffff) = None));
    Alcotest.test_case "add_sub and mem_sub allocate nothing" `Quick (fun () ->
        let rng = Drbg.create ~seed:"bloom-alloc" in
        let calls = 1000 in
        let tokens = Bytes.of_string (Drbg.bytes rng (32 * calls)) in
        let f = Bloom.create ~expected_elements:calls in
        let words name op =
          op 0;
          let w0 = Gc.minor_words () in
          for i = 0 to calls - 1 do
            op i
          done;
          let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
          (* any allocation is at least 2 words (header and field) *)
          if per_call >= 1.0 then Alcotest.failf "%s allocates %.1f words per call" name per_call
        in
        words "add_sub" (fun i -> Bloom.add_sub f tokens ~pos:(32 * i) ~len:32);
        words "mem_sub hit" (fun i ->
            ignore (Sys.opaque_identity (Bloom.mem_sub f tokens ~pos:(32 * i) ~len:32)));
        words "mem_sub miss" (fun i ->
            ignore (Sys.opaque_identity (Bloom.mem_sub f tokens ~pos:((32 * i) + 1) ~len:31))));
    Alcotest.test_case "custom geometry" `Quick (fun () ->
        let f = Bloom.create_custom ~bits:256 ~hashes:4 in
        Bloom.add f "x";
        Alcotest.(check bool) "works" true (Bloom.mem f "x");
        Alcotest.(check int) "bits" 256 (Bloom.size_bits f);
        Alcotest.check_raises "invalid" (Invalid_argument "Bloom.create_custom") (fun () ->
            ignore (Bloom.create_custom ~bits:0 ~hashes:1)));
    Alcotest.test_case "golden filter bytes" `Quick (fun () ->
        let rng = Drbg.create ~seed:"bloom-golden" in
        let f = Bloom.create ~expected_elements:96 in
        for _ = 1 to 32 do
          Bloom.add f (Drbg.bytes rng 32)
        done;
        let flat = Bytes.of_string (Drbg.bytes rng (3 + (32 * 32))) in
        for i = 0 to 31 do
          Bloom.add_sub f flat ~pos:(3 + (32 * i)) ~len:32
        done;
        (* with the 5-byte "bloom" prefix, elements over 50 bytes take more
           than one SHA-256 block *)
        for n = 51 to 60 do
          Bloom.add f (Drbg.bytes rng n)
        done;
        let long = Bytes.of_string (Drbg.bytes rng 200) in
        for n = 51 to 60 do
          Bloom.add_sub f long ~pos:(n + 7) ~len:n
        done;
        Alcotest.(check string) "paper geometry, add and add_sub"
          "4a03ae27ace19255d158adc20fb9a3888d1b5132640d042cffc7b83c0a382a70" (filter_hash f);
        (* an nbits that is not a multiple of 8, every length 0 .. 60 *)
        let g = Bloom.create_custom ~bits:1001 ~hashes:7 in
        for n = 0 to 60 do
          Bloom.add g (Drbg.bytes rng n)
        done;
        Alcotest.(check string) "custom geometry"
          "33b399543865410ab4bdc881ae1fba75922decafa6ffa814c83e73c2e5b33cb1" (filter_hash g);
        (* an overloaded filter answers many probes wrongly: which ones pins
           the lookup walk of mem and mem_sub *)
        let h = Bloom.create_custom ~bits:203 ~hashes:3 in
        for _ = 1 to 40 do
          Bloom.add h (Drbg.bytes rng 32)
        done;
        let probes = Bytes.of_string (Drbg.bytes rng (32 * 400)) in
        let hits = Buffer.create 400 in
        for i = 0 to 399 do
          let m = Bloom.mem h (Bytes.sub_string probes (32 * i) 32) in
          Alcotest.(check bool) "mem = mem_sub" m (Bloom.mem_sub h probes ~pos:(32 * i) ~len:32);
          Buffer.add_char hits (if m then '1' else '0')
        done;
        Alcotest.(check string) "probe answers"
          "75950bc8733a43673e36da10ad43427eff3f0dd6270b1bf34aa850de4204536b"
          (Util.to_hex (Sha256.digest (Buffer.contents hits)));
        Alcotest.(check int) "false positives" 36
          (String.fold_left (fun acc c -> if c = '1' then acc + 1 else acc) 0 (Buffer.contents hits)));
    Alcotest.test_case "golden tiny-filter bytes" `Quick (fun () ->
        (* with nbits this small, h2 mod nbits = 0 is common, so this pins
           the h2 + 1 step too; one element per filter *)
        let rng = Drbg.create ~seed:"bloom-golden-tiny" in
        let b = Buffer.create 256 in
        List.iter
          (fun bits ->
            for _ = 1 to 16 do
              let f = Bloom.create_custom ~bits ~hashes:4 in
              Bloom.add f (Drbg.bytes rng 32);
              Buffer.add_string b (Bloom.to_bytes f)
            done)
          [ 2; 3; 5; 7; 11 ];
        Alcotest.(check string) "80 tiny filters"
          "405c5d14f3ed08cbf091341b86e587907c4ee6b588ceaff5adaf1b54ac28fbe6"
          (Util.to_hex (Sha256.digest (Buffer.contents b))));
    Alcotest.test_case "wire size matches the 48-bit/token accounting" `Quick (fun () ->
        (* §5.2: the whole point is 48 bits/token vs 256-bit raw tokens *)
        let n = 1000 in
        let f = Bloom.create ~expected_elements:n in
        let bytes = String.length (Bloom.to_bytes f) in
        Alcotest.(check bool) "6 bytes/token + header" true (bytes <= (n * 6) + 16);
        Alcotest.(check bool) "well under raw 32 bytes/token" true (bytes * 5 < n * 32));
  ]

let prop name ?(count = 30) arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let property_tests =
  [
    prop "anything added is found" QCheck.(small_list small_string) (fun items ->
        let f = Bloom.create ~expected_elements:(Stdlib.max 1 (List.length items)) in
        List.iter (Bloom.add f) items;
        List.for_all (Bloom.mem f) items);
    prop "roundtrip through bytes" QCheck.(small_list small_string) (fun items ->
        let f = Bloom.create ~expected_elements:(Stdlib.max 1 (List.length items)) in
        List.iter (Bloom.add f) items;
        match Bloom.of_bytes (Bloom.to_bytes f) with
        | None -> false
        | Some g -> List.for_all (Bloom.mem g) items);
  ]

let suite = unit_tests @ property_tests
