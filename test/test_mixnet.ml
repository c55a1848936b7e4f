(* Mixnet: onion layers, payloads, server processing, chain, mailboxes. *)

module Params = Alpenhorn_pairing.Params
module Dh = Alpenhorn_dh.Dh
module Onion = Alpenhorn_mixnet.Onion
module Payload = Alpenhorn_mixnet.Payload
module Server = Alpenhorn_mixnet.Server
module Chain = Alpenhorn_mixnet.Chain
module Mailbox = Alpenhorn_mixnet.Mailbox
module Mailbox_id = Alpenhorn_mixnet.Mailbox_id
module Bloom = Alpenhorn_bloom.Bloom
module Drbg = Alpenhorn_crypto.Drbg

let params = lazy (Params.test ())
let p () = Lazy.force params

(* an in-process chain of [n] servers, its noise value the noise body
   itself (also used by test_trace and test_parallel) *)
let local_chain pr ~rng n =
  Chain.create
    (Array.init n (fun i ->
         Chain.local ~noise_body:Fun.id
           (Server.create pr
              ~rng:(Drbg.derive rng (Printf.sprintf "mix-server-%d" i))
              ~position:i ~chain_length:n)))

(* a batch for [Chain.mix], no submission traced *)
let untraced batch = Array.map (fun onion -> (onion, None)) batch

let unit_tests =
  [
    Alcotest.test_case "mailbox id golden values" `Quick (fun () ->
        (* "mailbox" plus up to 48 identity bytes is one SHA-256 block;
           the 49- and 60-byte identities take two. [max_int] mailboxes
           pins all 62 bits of the hash. *)
        let ids =
          [ ""; "alice@example.org"; "bob@example.com"; String.make 48 'x'; String.make 49 'y';
            String.make 60 'z' ]
        in
        let got =
          List.concat_map
            (fun id ->
              List.map
                (fun k -> string_of_int (Mailbox_id.of_identity id ~num_mailboxes:k))
                [ 1; 7; 1000; max_int ])
            ids
        in
        Alcotest.(check string) "ids"
          "0,0,904,1350698173699281904,0,3,398,749736561826619398,0,1,254,1417235886904741254,0,5,984,3477905517180597984,0,2,140,2034957326531855140,0,6,384,3913859722983126384"
          (String.concat "," got));
    Alcotest.test_case "onion wrap/unwrap through three layers" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"onion" in
        let keys = List.init 3 (fun _ -> Dh.keygen pr rng) in
        let onion = Onion.wrap pr rng ~server_pks:(List.map snd keys) "the payload" in
        let result =
          List.fold_left
            (fun acc (sk, _) -> Option.bind acc (fun msg -> Onion.unwrap pr ~sk msg))
            (Some onion) keys
        in
        Alcotest.(check (option string)) "restored" (Some "the payload") result);
    Alcotest.test_case "wrong server key fails to unwrap" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"onion2" in
        let _, pk = Dh.keygen pr rng in
        let sk2, _ = Dh.keygen pr rng in
        let onion = Onion.wrap pr rng ~server_pks:[ pk ] "payload" in
        Alcotest.(check (option string)) "reject" None (Onion.unwrap pr ~sk:sk2 onion));
    Alcotest.test_case "unwrap order matters" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"onion3" in
        let (sk1, pk1) = Dh.keygen pr rng and (sk2, pk2) = Dh.keygen pr rng in
        let onion = Onion.wrap pr rng ~server_pks:[ pk1; pk2 ] "payload" in
        (* second server's key cannot strip the first layer *)
        Alcotest.(check (option string)) "out of order" None (Onion.unwrap pr ~sk:sk2 onion);
        Alcotest.(check (option string)) "in order" (Some "payload")
          (Option.bind (Onion.unwrap pr ~sk:sk1 onion) (fun m -> Onion.unwrap pr ~sk:sk2 m)));
    Alcotest.test_case "layer overhead is exact" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"onion4" in
        let keys = List.init 3 (fun _ -> snd (Dh.keygen pr rng)) in
        let body = String.make 100 'b' in
        let onion = Onion.wrap pr rng ~server_pks:keys body in
        Alcotest.(check int) "3 layers" (100 + (3 * Onion.layer_overhead pr)) (String.length onion));
    Alcotest.test_case "payload codec" `Quick (fun () ->
        Alcotest.(check (option (pair int string))) "roundtrip" (Some (7, "body"))
          (Payload.decode (Payload.encode ~mailbox:7 "body"));
        Alcotest.(check (option (pair int string))) "cover id" (Some (Payload.cover, ""))
          (Payload.decode (Payload.encode ~mailbox:Payload.cover ""));
        Alcotest.(check bool) "short input" true (Payload.decode "ab" = None);
        Alcotest.check_raises "negative mailbox" (Invalid_argument "Payload.encode: mailbox")
          (fun () -> ignore (Payload.encode ~mailbox:(-1) "x")));
    Alcotest.test_case "server process unwraps, adds noise, shuffles" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"server" in
        let s = Server.create pr ~rng:(Drbg.derive rng "s0") ~position:0 ~chain_length:1 in
        let pk = Server.new_round s in
        let msgs =
          Array.init 20 (fun i ->
              Onion.wrap pr rng ~server_pks:[ pk ]
                (Payload.encode ~mailbox:0 (Printf.sprintf "msg-%02d" i)))
        in
        let out, noise =
          Server.process s ~downstream_pks:[] ~noise_mu:5.0 ~laplace_b:0.0 ~num_mailboxes:2
            ~noise_body:(fun ~mailbox:_ -> "nnnnnn") msgs
        in
        Alcotest.(check int) "noise count: mu per mailbox" 10 noise;
        Alcotest.(check int) "total out" 30 (Array.length out);
        (* all real payloads survive the shuffle *)
        let decoded = Array.to_list out |> List.filter_map Payload.decode |> List.map snd in
        for i = 0 to 19 do
          let m = Printf.sprintf "msg-%02d" i in
          Alcotest.(check bool) m true (List.mem m decoded)
        done);
    Alcotest.test_case "server drops undecryptable input (client DoS)" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"server2" in
        let s = Server.create pr ~rng:(Drbg.derive rng "s0") ~position:0 ~chain_length:1 in
        let _ = Server.new_round s in
        let out, _ =
          Server.process s ~downstream_pks:[] ~noise_mu:0.0 ~laplace_b:0.0 ~num_mailboxes:1
            ~noise_body:(fun ~mailbox:_ -> "")
            [| "garbage"; String.make 200 'x' |]
        in
        Alcotest.(check int) "all dropped" 0 (Array.length out));
    Alcotest.test_case "server refuses to process without a round key" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"server3" in
        let s = Server.create pr ~rng ~position:0 ~chain_length:1 in
        Alcotest.check_raises "no key" (Invalid_argument "Server.process: no round key (call new_round)")
          (fun () ->
            ignore
              (Server.process s ~downstream_pks:[] ~noise_mu:0.0 ~laplace_b:0.0 ~num_mailboxes:1
                 ~noise_body:(fun ~mailbox:_ -> "")
                 [||]));
        let _ = Server.new_round s in
        Server.end_round s;
        (* after end_round, the key is erased again *)
        Alcotest.(check bool) "key erased" true (Server.round_public s = None));
    Alcotest.test_case "chain delivers payloads to the right mailboxes" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"chain" in
        let chain = local_chain pr ~rng 3 in
        let pks = Chain.begin_round chain in
        let batch =
          Array.init 10 (fun i ->
              Onion.wrap pr rng ~server_pks:pks
                (Payload.encode ~mailbox:(i mod 3) (Printf.sprintf "p%d" i)))
        in
        let final, noise, _ =
          Chain.mix chain ~noise_mu:1.0 ~laplace_b:0.0 ~num_mailboxes:3
            ~noise:(fun ~mailbox:_ -> "noise!") (untraced batch)
        in
        let mailboxes, _ = Mailbox.distribute ~num_mailboxes:3 ~mode:`AddFriend final in
        Alcotest.(check int) "real in" 10 (Array.length final - noise);
        let buckets = Mailbox.plain_exn mailboxes in
        Alcotest.(check int) "3 mailboxes" 3 (Array.length buckets);
        for i = 0 to 9 do
          Alcotest.(check bool)
            (Printf.sprintf "p%d in mailbox %d" i (i mod 3))
            true
            (List.mem (Printf.sprintf "p%d" i) buckets.(i mod 3))
        done);
    Alcotest.test_case "chain cover traffic is dropped" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"chain2" in
        let chain = local_chain pr ~rng 2 in
        let pks = Chain.begin_round chain in
        let batch =
          Array.init 5 (fun _ ->
              Onion.wrap pr rng ~server_pks:pks (Payload.encode ~mailbox:Payload.cover "cover"))
        in
        let final, _, _ =
          Chain.mix chain ~noise_mu:0.0 ~laplace_b:0.0 ~num_mailboxes:1
            ~noise:(fun ~mailbox:_ -> "") (untraced batch)
        in
        let mailboxes, dropped = Mailbox.distribute ~num_mailboxes:1 ~mode:`AddFriend final in
        Alcotest.(check int) "all cover dropped" 5 dropped;
        Alcotest.(check int) "mailbox empty" 0 (List.length (Mailbox.plain_exn mailboxes).(0)));
    Alcotest.test_case "dialing mode packs Bloom filters" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"chain3" in
        let chain = local_chain pr ~rng 2 in
        let pks = Chain.begin_round chain in
        let token = Drbg.bytes rng 32 in
        let batch = [| Onion.wrap pr rng ~server_pks:pks (Payload.encode ~mailbox:0 token) |] in
        let final, _, _ =
          Chain.mix chain ~noise_mu:2.0 ~laplace_b:0.0 ~num_mailboxes:1
            ~noise:(fun ~mailbox:_ -> Drbg.bytes rng 32)
            (untraced batch)
        in
        let mailboxes, _ = Mailbox.distribute ~num_mailboxes:1 ~mode:`Dialing final in
        let filters = Mailbox.filters_exn mailboxes in
        Alcotest.(check bool) "token in filter" true (Bloom.mem filters.(0) token);
        Alcotest.(check bool) "random token not in filter" false
          (Bloom.mem filters.(0) (Drbg.bytes rng 32)));
    Alcotest.test_case "mailbox count policy (§6 balance)" `Quick (fun () ->
        (* paper's own examples: 1M users 5% active -> 4 add-friend mailboxes,
           42 at 10M; dialing: 1 at 1M, 7 at 10M *)
        let check name expected ~real ~mu =
          Alcotest.(check int) name expected
            (Mailbox.num_mailboxes_for ~expected_real:real ~noise_mu:mu ~chain_length:3)
        in
        check "1M addfriend" 4 ~real:50_000 ~mu:4000.0;
        check "10M addfriend" 42 ~real:500_000 ~mu:4000.0;
        check "1M dialing" 1 ~real:50_000 ~mu:25000.0;
        check "10M dialing" 7 ~real:500_000 ~mu:25000.0;
        check "tiny load still 1" 1 ~real:10 ~mu:4000.0);
    Alcotest.test_case "mailbox_of_identity is stable and in range" `Quick (fun () ->
        let m1 = Mailbox.mailbox_of_identity "alice@x" ~num_mailboxes:7 in
        let m2 = Mailbox.mailbox_of_identity "alice@x" ~num_mailboxes:7 in
        Alcotest.(check int) "stable" m1 m2;
        Alcotest.(check bool) "range" true (m1 >= 0 && m1 < 7));
  ]

(* Attacker-controlled bytes entering the mixnet decode path must surface
   as [None], never as an exception: corrupt *valid* encodings in the
   structured ways a malicious client could (non-canonical field element,
   bad point-format byte, point at infinity as a public key, truncation)
   and push them through every decoder a server runs. *)
let corrupt_encoding_tests =
  let module Wire = Alpenhorn_core.Wire in
  let module Bls = Alpenhorn_bls.Bls in
  let no_raise what f =
    match f () with
    | None -> ()
    | Some _ -> Alcotest.failf "%s: corrupt encoding decoded successfully" what
    | exception e -> Alcotest.failf "%s: decoder raised %s" what (Printexc.to_string e)
  in
  [
    Alcotest.test_case "corrupt onion header never raises" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"corrupt-onion" in
        let sk, pk = Dh.keygen pr rng in
        let onion = Onion.wrap pr rng ~server_pks:[ pk ] "payload" in
        let ps = Dh.public_size pr in
        let fe = ps - 1 in
        (* each mutation targets the ephemeral-key point prefix *)
        let set_prefix prefix =
          prefix ^ String.sub onion ps (String.length onion - ps)
        in
        let mutations =
          [
            (* x coordinate >= p: non-canonical field element *)
            ("non-canonical x", set_prefix (String.make fe '\xff' ^ "\x00"));
            (* format byte outside {00, 01, ff...} *)
            ("bad parity byte", set_prefix (String.sub onion 0 fe ^ "\x7f"));
            (* all-ff encodes the point at infinity: not a valid DH key *)
            ("infinity as epk", set_prefix (String.make ps '\xff'));
            (* truncated to a partial header *)
            ("truncated", String.sub onion 0 (ps - 1));
            ("empty", "");
          ]
        in
        List.iter (fun (what, m) -> no_raise what (fun () -> Onion.unwrap pr ~sk m)) mutations;
        (* an off-curve x (x³+1 a non-residue) must also be rejected; scan
           for one deterministically so the vector is stable *)
        let fp = pr.Params.fp in
        let module Field = Alpenhorn_pairing.Field in
        let module B = Alpenhorn_bigint.Bigint in
        let off_curve = ref None in
        let x = ref B.two in
        while !off_curve = None do
          let rhs = Field.add fp (Field.mul fp (Field.sqr fp !x) !x) B.one in
          if Field.sqrt fp rhs = None then off_curve := Some !x else x := B.add !x B.one
        done;
        let xb = Field.to_bytes fp (Option.get !off_curve) in
        no_raise "off-curve x" (fun () -> Onion.unwrap pr ~sk (set_prefix (xb ^ "\x00"))));
    Alcotest.test_case "corrupt friend request never raises" `Quick (fun () ->
        let pr = p () in
        let rng = Drbg.create ~seed:"corrupt-req" in
        let bsk, bpk = Bls.keygen pr rng in
        let _, dpk = Dh.keygen pr rng in
        let r =
          {
            Wire.sender_email = "mallory@example.org";
            sender_key = bpk;
            sender_sig = Bls.sign pr bsk "placeholder";
            pkg_sigs = Bls.sign pr bsk "placeholder2";
            dialing_key = dpk;
            dialing_round = 7;
          }
        in
        let enc = Wire.encode_request pr r in
        (match Wire.decode_request pr enc with
        | Some _ -> ()
        | None -> Alcotest.fail "valid request must decode");
        let ps = Dh.public_size pr in
        let fe = ps - 1 in
        let splice off sub =
          String.sub enc 0 off ^ sub ^ String.sub enc (off + String.length sub)
            (String.length enc - off - String.length sub)
        in
        (* corrupt each of the four embedded points in turn *)
        for i = 0 to 3 do
          let off = 1 + Wire.max_email_length + (i * ps) in
          no_raise
            (Printf.sprintf "point %d non-canonical" i)
            (fun () -> Wire.decode_request pr (splice off (String.make fe '\xff' ^ "\x00")));
          no_raise
            (Printf.sprintf "point %d bad parity" i)
            (fun () -> Wire.decode_request pr (splice (off + fe) "\x7f"))
        done;
        (* oversized claimed email length *)
        no_raise "bad email length" (fun () ->
            Wire.decode_request pr (splice 0 (String.make 1 '\xff')));
        (* wrong total size *)
        no_raise "truncated request" (fun () ->
            Wire.decode_request pr (String.sub enc 0 (String.length enc - 1))));
    Alcotest.test_case "corrupt bloom filter never raises" `Quick (fun () ->
        let b = Bloom.create ~expected_elements:16 in
        Bloom.add b "tok";
        let enc = Bloom.to_bytes b in
        let no_raise_b what f =
          match f () with
          | (None | Some _) -> ()
          | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
        in
        (* claimed nbits inconsistent with the actual byte count *)
        no_raise_b "huge nbits" (fun () ->
            Bloom.of_bytes ("\x7f\xff\xff\xff" ^ String.sub enc 4 (String.length enc - 4)));
        no_raise_b "zero nbits" (fun () ->
            Bloom.of_bytes (String.make 4 '\x00' ^ String.sub enc 4 (String.length enc - 4)));
        no_raise_b "truncated" (fun () -> Bloom.of_bytes (String.sub enc 0 11));
        (match Bloom.of_bytes ("\x7f\xff\xff\xff" ^ String.sub enc 4 (String.length enc - 4)) with
        | Some _ -> Alcotest.fail "inconsistent header must be rejected"
        | None -> ());
        (* a hash count of 2^32 - 1 would make every lookup walk that many
           indices *)
        let huge_k = String.sub enc 0 4 ^ "\xff\xff\xff\xff" ^ String.sub enc 8 (String.length enc - 8) in
        no_raise_b "huge k" (fun () -> Bloom.of_bytes huge_k);
        match Bloom.of_bytes huge_k with
        | Some _ -> Alcotest.fail "hash count 2^32 - 1 must be rejected"
        | None -> ());
  ]

let prop name ?(count = 15) arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let property_tests =
  [
    prop "onion roundtrip for arbitrary bodies and chain lengths"
      QCheck.(pair small_string (int_range 1 4))
      (fun (body, n) ->
        let pr = p () in
        let rng = Drbg.create ~seed:(body ^ string_of_int n) in
        let keys = List.init n (fun _ -> Dh.keygen pr rng) in
        let onion = Onion.wrap pr rng ~server_pks:(List.map snd keys) body in
        List.fold_left
          (fun acc (sk, _) -> Option.bind acc (fun m -> Onion.unwrap pr ~sk m))
          (Some onion) keys
        = Some body);
  ]

let suite = unit_tests @ corrupt_encoding_tests @ property_tests

(* The §6 noise as every server draws it, Laplace(µ, b) rounded to the
   nearest count and clamped at 0, against that law's CDF:
   P(N <= n) = F(n + 1/2) for n >= 0, all mass below 1/2 landing on 0.
   Both CDFs are steps on the integers, so the Kolmogorov-Smirnov
   distance is the largest gap at n = 0 .. max draw. *)
let noise_tests =
  let laplace_cdf ~mu ~b x =
    if x < mu then 0.5 *. exp ((x -. mu) /. b) else 1.0 -. (0.5 *. exp ((mu -. x) /. b))
  in
  let ks_distance ~mu ~b ~draws =
    let rng = Drbg.create ~seed:"noise-ks" in
    let samples = Array.init draws (fun _ -> Mailbox.noise_count rng ~mu ~b) in
    let counts = Array.make (Array.fold_left max 0 samples + 1) 0 in
    Array.iter (fun n -> counts.(n) <- counts.(n) + 1) samples;
    let below = ref 0 and d = ref 0.0 in
    Array.iteri
      (fun n c ->
        below := !below + c;
        let empirical = float_of_int !below /. float_of_int draws in
        d := Float.max !d (Float.abs (empirical -. laplace_cdf ~mu ~b (float_of_int n +. 0.5))))
      counts;
    !d
  in
  [
    Alcotest.test_case "noise draws follow the rounded, truncated Laplace law" `Quick (fun () ->
        (* the §8.1 add-friend setting, and one where rounding and the
           clamp at 0 dominate *)
        List.iter
          (fun (mu, b) ->
            let d = ks_distance ~mu ~b ~draws:100_000 in
            Alcotest.(check bool)
              (Printf.sprintf "KS %.4f < 0.01 at (%g, %g)" d mu b)
              true (d < 0.01))
          [ (4000.0, 406.0); (2.0, 2.0) ]);
  ]

let suite = suite @ noise_tests

(* ---- the batches against the per-message code they replaced ---- *)

module Aead = Alpenhorn_crypto.Aead
module Curve = Alpenhorn_pairing.Curve
module Field = Alpenhorn_pairing.Field
module B = Alpenhorn_bigint.Bigint

let zero_nonce = String.make 12 '\000'

(* one layer at a time, one keygen and one shared secret per layer *)
let reference_wrap pr rng ~server_pks body =
  List.fold_left
    (fun acc pk ->
      let esk, epk = Dh.keygen pr rng in
      let key = Dh.shared_secret pr esk pk in
      Dh.public_bytes pr epk ^ Aead.seal ~key ~nonce:zero_nonce acc)
    body (List.rev server_pks)

let reference_unwrap pr ~sk msg =
  let pklen = Dh.public_size pr in
  if String.length msg < pklen + Aead.overhead then None
  else
    match Dh.public_of_bytes pr (String.sub msg 0 pklen) with
    | None -> None
    | Some epk ->
      Aead.open_ ~key:(Dh.shared_secret pr sk epk) ~nonce:zero_nonce
        (String.sub msg pklen (String.length msg - pklen))

(* Server.process as a loop over messages: the round key, the unwraps,
   then per mailbox its noise count and per noise message its body and
   its onion, then the shuffle, all on the server's DRBG *)
let reference_process pr ~seed ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes batch =
  let rng = Drbg.create ~seed in
  let sk, _ = Dh.keygen pr rng in
  let unwrapped = List.filter_map (reference_unwrap pr ~sk) (Array.to_list batch) in
  let noise = ref [] and count = ref 0 in
  for mailbox = 0 to num_mailboxes - 1 do
    let n = Mailbox.noise_count rng ~mu:noise_mu ~b:laplace_b in
    count := !count + n;
    for _ = 1 to n do
      let body = Drbg.bytes rng 8 ^ string_of_int mailbox in
      let onion = reference_wrap pr rng ~server_pks:downstream_pks (Payload.encode ~mailbox body) in
      noise := onion :: !noise
    done
  done;
  let out = Array.of_list (List.rev_append !noise unwrapped) in
  Drbg.shuffle rng out;
  (out, !count)

let batch_tests =
  [
    Alcotest.test_case "batch wrap and unwrap match the per-message code" `Quick (fun () ->
        List.iter
          (fun (name, pr, n) ->
            for layers = 0 to 3 do
              let rng = Drbg.create ~seed:(Printf.sprintf "batch-%s-%d" name layers) in
              let keys = List.init layers (fun _ -> Dh.keygen pr rng) in
              let server_pks = List.map snd keys in
              let bodies = Array.init n (fun i -> Printf.sprintf "body %d %s" i (String.make i 'b')) in
              let draws () = Drbg.create ~seed:"batch-draws" in
              let reference = Array.map (reference_wrap pr (draws ()) ~server_pks) bodies in
              let rng = draws () in
              let batch =
                Onion.wrap_batch pr ~server_pks
                  (Array.map (fun body -> (Onion.secrets pr rng ~layers, body)) bodies)
              in
              let label what = Printf.sprintf "%s, %d layers: %s" name layers what in
              Alcotest.(check (array string)) (label "wrap_batch") reference batch;
              let rng = draws () in
              Alcotest.(check (array string)) (label "wrap")
                reference (Array.map (Onion.wrap pr rng ~server_pks) bodies);
              match keys with
              | [] -> ()
              | (sk, _) :: _ ->
                Alcotest.(check (array (option string))) (label "unwrap_batch")
                  (Array.map (reference_unwrap pr ~sk) batch) (Onion.unwrap_batch pr ~sk batch);
                Alcotest.(check (array (option string))) (label "unwrap")
                  (Array.map (reference_unwrap pr ~sk) batch)
                  (Array.map (Onion.unwrap pr ~sk) batch)
            done)
          [ ("test", p (), 12); ("production", Params.production (), 5) ]);
    Alcotest.test_case "hostile onions in a batch unwrap to None, as alone" `Quick (fun () ->
        let pr = p () in
        let f = pr.Params.fp in
        let rng = Drbg.create ~seed:"batch-hostile" in
        let sk, pk = Dh.keygen pr rng in
        let good =
          Array.init 3 (fun i -> Onion.wrap pr rng ~server_pks:[ pk ] (Printf.sprintf "ok %d" i))
        in
        let pklen = Dh.public_size pr in
        let body = String.sub good.(0) pklen (String.length good.(0) - pklen) in
        let tampered =
          let b = Bytes.of_string good.(0) in
          let last = Bytes.length b - 1 in
          Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 1));
          Bytes.to_string b
        in
        let rec off_curve x =
          let rhs = Field.add f (Field.mul f (Field.sqr f x) x) B.one in
          if Option.is_none (Field.sqrt f rhs) then Field.to_bytes f x ^ "\x00"
          else off_curve (B.add x B.one)
        in
        (* (p − 1, 0) has order 2; the key decoder accepts it *)
        let small_order = Curve.to_bytes f (Curve.make f ~x:(Field.neg f B.one) ~y:B.zero) in
        Alcotest.(check bool) "small-order key accepted" true
          (Option.is_some (Dh.public_of_bytes pr small_order));
        let hostile =
          [ ("tampered tag", tampered);
            ("truncated", String.sub good.(1) 0 (pklen + Alpenhorn_crypto.Aead.overhead - 1));
            ("infinity key", String.make pklen '\xff' ^ body);
            ("off-curve key", off_curve B.two ^ body);
            ("small-order key", small_order ^ body) ]
        in
        List.iter
          (fun (name, onion) ->
            Alcotest.(check (option string)) (name ^ " alone") None (Onion.unwrap pr ~sk onion))
          hostile;
        let batch =
          Array.of_list (List.concat (List.mapi (fun i (_, o) -> [ o; good.(i mod 3) ]) hostile))
        in
        let got = Onion.unwrap_batch pr ~sk batch in
        Alcotest.(check (array (option string))) "batch = per onion"
          (Array.map (reference_unwrap pr ~sk) batch) got;
        Array.iteri
          (fun i r ->
            Alcotest.(check bool) (Printf.sprintf "onion %d" i) (i mod 2 = 1) (Option.is_some r))
          got);
    Alcotest.test_case "Server.process matches the per-message loop" `Quick (fun () ->
        let run pr ~noise_mu ~laplace_b ~num_mailboxes ~downstream =
          let seed = Printf.sprintf "process-%g-%g-%d" noise_mu laplace_b downstream in
          let rng = Drbg.create ~seed:(seed ^ "-keys") in
          let downstream_pks = List.init downstream (fun _ -> snd (Dh.keygen pr rng)) in
          let srng = Drbg.create ~seed in
          let server = Server.create pr ~rng:srng ~position:0 ~chain_length:(downstream + 1) in
          let pk = Server.new_round server in
          let batch =
            Array.init 6 (fun i ->
                if i = 4 then "not an onion"
                else
                  Onion.wrap pr rng ~server_pks:(pk :: downstream_pks)
                    (Payload.encode ~mailbox:(i mod num_mailboxes) (Printf.sprintf "real %d" i)))
          in
          let got =
            Server.process server ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes
              ~noise_body:(fun ~mailbox -> Drbg.bytes srng 8 ^ string_of_int mailbox)
              batch
          in
          let want =
            reference_process pr ~seed ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes batch
          in
          Alcotest.(check (pair (array string) int))
            (Printf.sprintf "µ %g, b %g, %d mailboxes, %d downstream" noise_mu laplace_b
               num_mailboxes downstream)
            want got
        in
        List.iter
          (fun downstream ->
            List.iter
              (fun pr ->
                List.iter
                  (fun noise_mu -> run pr ~noise_mu ~laplace_b:0.0 ~num_mailboxes:2 ~downstream)
                  [ 0.0; 1.0; 2.0 ];
                run pr ~noise_mu:2.0 ~laplace_b:1.0 ~num_mailboxes:3 ~downstream)
              [ p (); Params.production () ];
            run (p ()) ~noise_mu:500.0 ~laplace_b:0.0 ~num_mailboxes:1 ~downstream)
          [ 0; 1; 2; 3 ]);
  ]

let suite = suite @ batch_tests

(* Montgomery multiplications (the deterministic "pairing.mont_mul"
   count) of the hop paths, against budgets set from the per-message
   code the batches replaced. *)
let work_tests =
  [
    Alcotest.test_case "hop work stays within its multiplication budget" `Quick (fun () ->
        let muls = Alpenhorn_telemetry.Telemetry.(Counter.v default "pairing.mont_mul") in
        let count f =
          let m0 = Alpenhorn_telemetry.Telemetry.Counter.value muls in
          ignore (Sys.opaque_identity (f ()));
          Alpenhorn_telemetry.Telemetry.Counter.value muls - m0
        in
        let budget name ~max n =
          if n > max then Alcotest.failf "%s runs %d multiplications (at most %d)" name n max
        in
        (* pair-fleet's dialing shape: 3 hops, 48 inbound onions, one
           mailbox, [noise_mu] noise per server *)
        let chain pr ~noise_mu =
          Params.force_tables pr;
          let rng = Drbg.create ~seed:"work-chain" in
          let servers =
            Array.init 3 (fun position ->
                Server.create pr
                  ~rng:(Drbg.derive rng (string_of_int position))
                  ~position ~chain_length:3)
          in
          let pks = Array.to_list (Array.map Server.new_round servers) in
          let batch =
            Array.init 48 (fun i ->
                Onion.wrap pr rng ~server_pks:pks (Payload.encode ~mailbox:0 (Printf.sprintf "%032d" i)))
          in
          count (fun () ->
              Array.fold_left
                (fun (batch, i) server ->
                  let downstream_pks = List.filteri (fun j _ -> j > i) pks in
                  let out, _ =
                    Server.process server ~downstream_pks ~noise_mu ~laplace_b:0.0 ~num_mailboxes:1
                      ~noise_body:(fun ~mailbox:_ -> Drbg.bytes rng 32)
                      batch
                  in
                  (out, i + 1))
                (batch, 0) servers)
        in
        budget "test-curve chain at 500 noise" ~max:2_300_000 (chain (p ()) ~noise_mu:500.0);
        budget "production chain at 2 noise" ~max:515_000 (chain (Params.production ()) ~noise_mu:2.0);
        List.iter
          (fun (name, pr, layer, mul_g) ->
            let rng = Drbg.create ~seed:"work-onion" in
            let server_pks = List.init 3 (fun _ -> snd (Dh.keygen pr rng)) in
            budget (name ^ " 3-layer onion") ~max:(3 * layer)
              (count (fun () -> Onion.wrap pr rng ~server_pks (String.make 64 'x')));
            budget (name ^ " mul_g") ~max:mul_g
              (count (fun () -> Params.mul_g pr (Drbg.bigint_below rng pr.Params.q))))
          [ ("test", p (), 1258, 357); ("production", Params.production (), 4094, 1214) ]);
  ]

let suite = suite @ work_tests
