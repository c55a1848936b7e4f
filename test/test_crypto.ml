(* Crypto primitives against RFC test vectors plus behavioural properties. *)

module C = Alpenhorn_crypto
module Sha256 = C.Sha256
module Hmac = C.Hmac
module Chacha20 = C.Chacha20
module Aead = C.Aead
module Drbg = C.Drbg
module Util = C.Util

let hex = Util.to_hex

let sha256_vectors =
  (* FIPS 180-4 / RFC 6234 *)
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
  ]

(* SHA-256 of the first n bytes of 00 01 02 .. for n = 0 .. 130, from
   python3's hashlib: every padding case around the one-block edge (55/56)
   and the two-block edge (119/120) *)
let sha256_counting_kat =
  [|
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
    "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d";
    "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2";
    "ae4b3280e56e2faf83f414a6e3dabe9d5fbe18976544c05fed121accb85b53fc";
    "054edec1d0211f624fed0cbca9d4f9400b0e491c43742af2c5b0abebf0c990d8";
    "08bb5e5d6eaac1049ede0893d30ed022b1a4d9b5b48db414871f51c9cb35283d";
    "17e88db187afd62c16e5debf3e6527cd006bc012bc90b51a810cd80c2d511f43";
    "57355ac3303c148f11aef7cb179456b9232cde33a818dfda2c2fcb9325749a6b";
    "8a851ff82ee7048ad09ec3847f1ddf44944104d2cbd17ef4e3db22c6785a0d45";
    "f8348e0b1df00833cbbbd08f07abdecc10c0efb78829d7828c62a7f36d0cc549";
    "1f825aa2f0020ef7cf91dfa30da4668d791c5d4824fc8e41354b89ec05795ab3";
    "78a6273103d17c39a0b6126e226cec70e33337f4bc6a38067401b54a33e78ead";
    "fff3a9bcdd37363d703c1c4f9512533686157868f0d4f16a0f02d0f1da24f9a2";
    "86eba947d50c2c01570fe1bb5ca552958dabbdbb59b0657f0f26e21ff011e5c7";
    "ab107f1bd632d3c3f5c724a99d024f7faa033f33c07696384b604bfe78ac352d";
    "7071fc3188fde7e7e500d4768f1784bede1a22e991648dcab9dc3219acff1d4c";
    "be45cb2605bf36bebde684841a28f0fd43c69850a3dce5fedba69928ee3a8991";
    "3e5718fea51a8f3f5baca61c77afab473c1810f8b9db330273b4011ce92c787e";
    "7a096cc12702bcfa647ee070d4f3ba4c2d1d715b484b55b825d0edba6545803b";
    "5f9a753613d87b8a17302373c4aee56faa310d3b24b6ae1862d673aa22e1790f";
    "e7aebf577f60412f0312d442c70a1fa6148c090bf5bab404caec29482ae779e8";
    "75aee9dcc9fbe7ddc9394f5bc5d38d9f5ad361f0520f7ceab59616e38f5950b5";
    "22cb4df00cddd6067ad5cfa2bba9857f21a06843e1a6e39ad1a68cb9a45ab8b7";
    "f6a954a68555187d88cd9a026940d15ab2a7e24c7517d21ceeb028e93c96f318";
    "1d64add2a6388367c9bc2d1f1b384b069a6ef382cdaaa89771dd103e28613a25";
    "b729ce724d9a48d3884dbfcbee1d3793d922b29fa9d639e7290af4978263772b";
    "b858da80d8a57dc546905fd147612ebddd3c9188620405d058f9ee5ab1e6bc52";
    "d78750726155a89c9131d0ecf2704b973b8710865bf9e831845de4f2dcbc19da";
    "dc27f8e8ee2d08a2bccbb2dbd6c8e07ffba194101fc3458c34ded55f72c0971a";
    "d09bea65dff48928a14b79741de3274b646f55ac898b71a66fa3eae2d9facd77";
    "f2192584b67da35dfc26f743e5f53bb0376046f899dc6dabd5e7b541ae86c32f";
    "4f23c2ca8c5c962e50cd31e221bfb6d0adca19111dca8e0c62598ff146dd19c4";
    "630dcd2966c4336691125448bbb25b4ff412a49c732db2c8abc1b8581bd710dd";
    "5d8fcfefa9aeeb711fb8ed1e4b7d5c8a9bafa46e8e76e68aa18adce5a10df6ab";
    "14cdbf171499f86bd18b262243d669067efbdbb5431a48289cf02f2b5448b3d4";
    "f12dd12340cb84e4d0d9958d62be7c59bb8f7243a7420fd043177ac542a26aaa";
    "5d7e2d9b1dcbc85e7c890036a2cf2f9fe7b66554f2df08cec6aa9c0a25c99c21";
    "f4d285f47a1e4959a445ea6528e5df3efab041fa15aad94db1e2600b3f395518";
    "a2fd0e15d72c9d18f383e40016f9ddc706673c54252084285aaa47a812552577";
    "4aba23aea5e2a91b7807cf3026cdd10a1c38533ce55332683d4ccb88456e0703";
    "5faa4eec3611556812c2d74b437c8c49add3f910f10063d801441f7d75cd5e3b";
    "753629a6117f5a25d338dff10f4dd3d07e63eecc2eaf8eabe773f6399706fe67";
    "40a1ed73b46030c8d7e88682078c5ab1ae5a2e524e066e8c8743c484de0e21e5";
    "c033843682818c475e187d260d5e2edf0469862dfa3bb0c116f6816a29edbf60";
    "17619ec4250ef65f083e2314ef30af796b6f1198d0fddfbb0f272930bf9bb991";
    "a8e960c769a9508d098451e3d74dd5a2ac6c861eb0341ae94e9fc273597278c9";
    "8ebfeb2e3a159e9f39ad7cc040e6678dade70d4f59a67d529fa76af301ab2946";
    "ef8a7781a95c32fa02ebf511eda3dc6e273be59cb0f9e20a4f84d54f41427791";
    "4dbdc2b2b62cb00749785bc84202236dbc3777d74660611b8e58812f0cfde6c3";
    "7509fe148e2c426ed16c990f22fe8116905c82c561756e723f63223ace0e147e";
    "a622e13829e488422ee72a5fc92cb11d25c3d0f185a1384b8138df5074c983bf";
    "3309847cee454b4f99dcfe8fdc5511a7ba168ce0b6e5684ef73f9030d009b8b5";
    "c4c6540a15fc140a784056fe6d9e13566fb614ecb2d9ac0331e264c386442acd";
    "90962cc12ae9cdae32d7c33c4b93194b11fac835942ee41b98770c6141c66795";
    "675f28acc0b90a72d1c3a570fe83ac565555db358cf01826dc8eefb2bf7ca0f3";
    "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59";
    "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562";
    "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f";
    "e03b18640c635b338a92b82cce4ff072f9f1aba9ac5261ee1340f592f35c0499";
    "bd2de8f5dd15c73f68dfd26a614080c2e323b2b51b1b5ed9d7933e535d223bda";
    "0ddde28e40838ef6f9853e887f597d6adb5f40eb35d5763c52e1e64d8ba3bfff";
    "4b5c2783c91ceccb7c839213bcbb6a902d7fe8c2ec866877a51f433ea17f3e85";
    "c89da82cbcd76ddf220e4e9091019b9866ffda72bee30de1effe6c99701a2221";
    "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488";
    "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108";
    "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781";
    "b6dfd259f6e0d07deb658a88148f8253f9bbbb74ddd6db3edbe159a56bc35073";
    "8fa5913b62847d42bb4b464e00a72c612d2ab0df2af0b9a96af8d323fa509077";
    "7ded979c0153ebb9ef28a15a314d0b27b41c4f8eed700b54974b48eb3ecaf91c";
    "1cf3aa651dcf35dbfe296e770ad7ebc4e00bcccd0224db296183dc952d0008c9";
    "5767d69a906d4860db9079eb7e90ab4a543e5cb032fce846554aef6ceb600e1d";
    "8189e3d54767d51e8d1942659a9e2905f9ec3ae72860c16a66e75b8cc9bd2087";
    "107de2bc788e11029f7851f8e1b0b5afb4e34379c709fc840689ebd3d1f51b5b";
    "169f6f093a9be82febe1a6a4471425697ec25d5040b472c5b1822aeea2625988";
    "2087ebd358ae3ea2a092fc19c2dfee57c5f0860296bc7b057c14e1227c5cb9d1";
    "182ab56f7739e43cee0b9ba1e92c4b2a81b088705516a5243910159744f21be9";
    "081f6c68899a48a1be455a55416104921d2fe4bdae696f4b72f9d9626a47915e";
    "5ce02376cc256861b78f87e34783814ba1aec6d09ab500d579ed8ee95c8afcc8";
    "b93e407404e3e95f20fd647365e0e7f46afabe9af1ff083af996135e00d54009";
    "e81fa832b37be8ed8f79da29987aa4d61310dcb14b2859dedf8fb1daa2541fd3";
    "c56705fea5b110b8dc63688533ced21167e628017387c885423b835a55edd5ef";
    "c2226285d08a245a17058ed2d24ad095b714f608ae364fddf119e0a7df890540";
    "f9c270da8793221a6809ac685fdd4f5387e0fe1ee6aaf01c74f1e0a719621614";
    "e69befd6ef7f685c36e343ac1702d87ad6a0e4ac8c0d5c521d04aad4ef0b7458";
    "4e3033562ad74a7d43eb5ff5fc2382622c6307cb10e245ad62da77c4c63cb178";
    "2ea17629472564a59e5eb845a2cdd04f442df2ff26bcc866e400f77158d612a1";
    "b90223df74dd49a8a1461f340f2d7a90f96903ccbb5bc3c74ea3658fc8948b20";
    "e0209f42b927ec9c0f6d6a76007ed540e9bdd6e427b3368a1ea6c5e7565972dd";
    "10d9bd424114319c0999adf6288f74060cd8918ef1228827a6269b2bf0f0880c";
    "7d1978a65ac94dbbcdc62e3d81850299fe157dd9b7bd9e01b170156210d2815a";
    "e052dff9e1c94aaa49556f86fad55029a4875839fda57f5005f4c4403876b256";
    "58d29459b2130a2e151252d408b95e6dac424c564062eb911cc76440cb926ca0";
    "4e4530c392316f598e1bd07f32166380a8f712a33a48e9eb4247131ec5dc05d3";
    "a09c9d3e42342c7dea44edb4aeb48cf6727cacd8032a12cf77a25829fc249d32";
    "eb978d0f1ac03ce5c3510b5f4a16073a7a2bdc15c4ab7777dcf01030cc316667";
    "7d1905a3ace827ea1ac51c4fa08c281ed3be87e7f4e928d696bfde35c8f2dc0f";
    "08359b108fa567f5dcf319fa3434da6abbc1d595f426372666447f09cc5a87dc";
    "a7b3830ffab0f2bbabbef6df0b169a7917008bf238880bbf8c20b8e000077312";
    "b4f5d9b1555994c5ebaebd82918d560a3bf82962a171a1614e7551939e943366";
    "014ecaea1b378900f1212898c6ddb01565d81af1d0ef78df5e28d46e9caf7cfc";
    "bce0aff19cf5aa6a7469a30d61d04e4376e4bbf6381052ee9e7f33925c954d52";
    "4565d7b898ccea3139ad260f9273115f806b30079d7683218c4e3ecd43af3b33";
    "ddadeb660fe8902c9fb2db9b6cf237c9ce5b31753398085c4367eb5910b9cc13";
    "c15a8928131f6687dd10f3c115ddf8d7c8f2df7e18d12c08c4fd16f666ce60ba";
    "ae8e3d799b1353a39815f90eceebefa265cc448fe39faf2008cb20784cb2df9f";
    "98545371a3d9981abe5ab4a32a1d7b2fadd9801d89da52a94a4f78a42740d21c";
    "6323dce2f8b3a04dcea8d205602348c40403cb200c677eb1a1c0fe37edb6eb2f";
    "8150f7c5da910d709ff02ddf85dd293c6a2672633de8cda30f2e0aa58b14b0c4";
    "44d21db70716bd7644cb0d819fa6791805ebc526ea32996a60e41dc753fcfafc";
    "b9b7c375cca45db19466ebd0fe7c9e147948cc42c1c90f0579728cfb2651956d";
    "a47a551b01e55aaaa015531a4fa26a666f1ebd4ba4573898de712b8b5e0ca7e9";
    "60780e9451bdc43cf4530ffc95cbb0c4eb24dae2c39f55f334d679e076c08065";
    "09373f127d34e61dbbaa8bc4499c87074f2ddb10e1b465f506d7d70a15011979";
    "13aaa9b5fb739cdb0e2af99d9ac0a409390adc4d1cb9b41f1ef94f8552060e92";
    "5b0a32f1219524f5d72b00ba1a1b1c09a05ff10c83bb7a86042e42988f2afc06";
    "32796a0a246ea67eb785eda2e045192b9d6e40b9fe2047b21ef0cee929039651";
    "da9ab8930992a9f65eccec4c310882cab428a708e6c899181046a8c73af00855";
    "9c94557382c966753c8cab0957eaedbe1d737b5fcb35c56c220ddd36f8a2d351";
    "d32ab00929cb935b79d44e74c5a745db460ff794dea3b79be40c1cc5cf5388ef";
    "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6";
    "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c";
    "335a461692b30bba1d647cc71604e88e676c90e4c22455d0b8c83f4bd7c8ac9b";
    "3d08c4d7bdda7ec922b0741df357de46e7bd102f9ab7a5c67624ab58da6d9d75";
    "cc63be92e3a900cd067da89473b61b40579b54ef54f8305c2ffcc893743792e9";
    "865447fc4fae01471f2fc973bfb448de00217521ef02e3214d5177ea89c3ef31";
    "3daa582f9563601e290f3cd6d304bff7e25a9ee42a34ffbac5cf2bf40134e0d4";
    "5dda7cb7c2282a55676f8ad5c448092f4a9ebd65338b07ed224fcd7b6c73f5ef";
    "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976";
    "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5";
    "5099c6a56203f9687f7d33f4bfdf576d31dc91f6b695ecea38b2770c87631135";
    "8d39b60b9c767c58975b270c1d6b13c9b4507e5aee7ad496a3528e4c7f880721";
  |]

let counting n = String.init n (fun i -> Char.chr (i land 0xff))

let unit_tests =
  [
    Alcotest.test_case "sha256 vectors" `Quick (fun () ->
        List.iter
          (fun (input, expect) ->
            Alcotest.(check string) ("sha256 of " ^ input) expect (hex (Sha256.digest input)))
          sha256_vectors);
    Alcotest.test_case "sha256 million a's" `Slow (fun () ->
        Alcotest.(check string) "million"
          "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
          (hex (Sha256.digest (String.make 1_000_000 'a'))));
    Alcotest.test_case "sha256 incremental equals one-shot" `Quick (fun () ->
        let data = String.init 1000 (fun i -> Char.chr (i land 0xff)) in
        List.iter
          (fun chunk ->
            let ctx = Sha256.init () in
            let rec feed pos =
              if pos < String.length data then begin
                let n = Stdlib.min chunk (String.length data - pos) in
                Sha256.update ctx (String.sub data pos n);
                feed (pos + n)
              end
            in
            feed 0;
            Alcotest.(check string)
              (Printf.sprintf "chunk=%d" chunk)
              (hex (Sha256.digest data))
              (hex (Sha256.finalize ctx)))
          [ 1; 7; 63; 64; 65; 128; 1000 ]);
    Alcotest.test_case "sha256 padding boundaries" `Quick (fun () ->
        (* lengths straddling the 55/56/64-byte padding edges must all differ *)
        let digests = List.map (fun n -> Sha256.digest (String.make n 'x')) [ 54; 55; 56; 57; 63; 64; 65 ] in
        let uniq = List.sort_uniq compare digests in
        Alcotest.(check int) "all distinct" (List.length digests) (List.length uniq));
    Alcotest.test_case "sha256 known answers for lengths 0..130" `Quick (fun () ->
        Array.iteri
          (fun n expect ->
            let m = counting n in
            Alcotest.(check string) (Printf.sprintf "one-shot n=%d" n) expect (hex (Sha256.digest m));
            (* the same message streamed in two uneven pieces *)
            let ctx = Sha256.init () in
            Sha256.update ctx (String.sub m 0 (n / 3));
            Sha256.update_bytes ctx (Bytes.of_string m) (n / 3) (n - (n / 3));
            Alcotest.(check string) (Printf.sprintf "streamed n=%d" n) expect (hex (Sha256.finalize ctx)))
          sha256_counting_kat);
    Alcotest.test_case "sha256 one-block entry matches the known answers" `Quick (fun () ->
        let d = Array.make 8 0 in
        let hex_words d = String.concat "" (Array.to_list (Array.map (Printf.sprintf "%08x") d)) in
        Array.iteri
          (fun n expect ->
            let m = counting n in
            (* the message split between prefix and slice at several points,
               the slice at an offset inside a larger buffer; past 55 bytes
               the entry streams through a context *)
            List.iter
              (fun cut ->
                let buf = Bytes.of_string ("--" ^ String.sub m cut (n - cut) ^ "-") in
                Sha256.digest_words_into d ~prefix:(String.sub m 0 cut) buf ~pos:2 ~len:(n - cut);
                Alcotest.(check string) (Printf.sprintf "n=%d cut=%d" n cut) expect (hex_words d))
              (List.sort_uniq compare [ 0; Stdlib.min 5 n; n / 2; n ]))
          sha256_counting_kat);
    Alcotest.test_case "sha256 rejects bad ranges and short outputs" `Quick (fun () ->
        let buf = Bytes.make 10 'x' in
        let bad what f =
          match f () with
          | () -> Alcotest.failf "%s: accepted" what
          | exception Invalid_argument _ -> ()
        in
        bad "update past the end" (fun () -> Sha256.update_bytes (Sha256.init ()) buf 4 7);
        bad "update negative length" (fun () -> Sha256.update_bytes (Sha256.init ()) buf 4 (-1));
        bad "one-block slice past the end" (fun () ->
            Sha256.digest_words_into (Array.make 8 0) ~prefix:"p" buf ~pos:8 ~len:3);
        bad "streamed slice past the end" (fun () ->
            Sha256.digest_words_into (Array.make 8 0) ~prefix:(String.make 50 'p') buf ~pos:8 ~len:9);
        bad "short output" (fun () -> Sha256.digest_words_into (Array.make 7 0) ~prefix:"" buf ~pos:0 ~len:10));
    Alcotest.test_case "sha256 reset restarts a context" `Quick (fun () ->
        let ctx = Sha256.init () in
        Sha256.update ctx (String.make 100 'q');
        ignore (Sha256.finalize ctx);
        Sha256.reset ctx;
        Sha256.update ctx "abc";
        Alcotest.(check string) "abc after reset"
          "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" (hex (Sha256.finalize ctx)));
    Alcotest.test_case "hashing allocation budgets" `Quick (fun () ->
        let calls = 1000 in
        let per_call op =
          op ();
          let w0 = Gc.minor_words () in
          for _ = 1 to calls do
            op ()
          done;
          (Gc.minor_words () -. w0) /. float_of_int calls
        in
        let d = Array.make 8 0 and token = Bytes.make 32 't' in
        let w = per_call (fun () -> Sha256.digest_words_into d ~prefix:"bloom" token ~pos:0 ~len:32) in
        (* any allocation is at least 2 words (header and field) *)
        if w >= 1.0 then Alcotest.failf "one-block digest_words_into allocates %.1f words" w;
        (* a short digest allocates its 32-byte result: 5 words and a header *)
        let w = per_call (fun () -> ignore (Sys.opaque_identity (Sha256.digest "keywheel-h1"))) in
        if w > 6.0 then Alcotest.failf "short digest allocates %.1f words" w;
        let key = String.make 32 'k' in
        let w = per_call (fun () -> ignore (Sys.opaque_identity (Hmac.hmac_sha256 ~key "keywheel-h1"))) in
        if w > 100.0 then Alcotest.failf "hmac_sha256 allocates %.1f words" w);
    Alcotest.test_case "incremental hmac equals one-shot" `Quick (fun () ->
        let msg = counting 300 in
        List.iter
          (fun key ->
            let h = Hmac.init ~key in
            Hmac.update h (String.sub msg 0 7);
            Hmac.update h "";
            Hmac.update h (String.sub msg 7 200);
            Hmac.update h (String.sub msg 207 93);
            Alcotest.(check string)
              (Printf.sprintf "key of %d bytes" (String.length key))
              (hex (Hmac.hmac_sha256 ~key msg))
              (hex (Hmac.finalize h)))
          [ ""; "k"; String.make 32 'k'; String.make 64 'k'; String.make 65 'k' ]);
    Alcotest.test_case "hmac rfc4231 cases" `Quick (fun () ->
        Alcotest.(check string) "case 1"
          "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
          (hex (Hmac.hmac_sha256 ~key:(String.make 20 '\x0b') "Hi There"));
        Alcotest.(check string) "case 2"
          "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
          (hex (Hmac.hmac_sha256 ~key:"Jefe" "what do ya want for nothing?"));
        (* case 6: key longer than block size *)
        Alcotest.(check string) "case 6 long key"
          "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
          (hex
             (Hmac.hmac_sha256 ~key:(String.make 131 '\xaa')
                "Test Using Larger Than Block-Size Key - Hash Key First"));
        Alcotest.(check string) "case 3"
          "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
          (hex (Hmac.hmac_sha256 ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')));
        Alcotest.(check string) "case 4"
          "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
          (hex
             (Hmac.hmac_sha256
                ~key:(String.init 25 (fun i -> Char.chr (i + 1)))
                (String.make 50 '\xcd')));
        (* case 7: key and message both longer than the block size *)
        Alcotest.(check string) "case 7 long key and data"
          "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
          (hex
             (Hmac.hmac_sha256 ~key:(String.make 131 '\xaa')
                "This is a test using a larger than block-size key and a larger than block-size \
                 data. The key needs to be hashed before being used by the HMAC algorithm.")));
    Alcotest.test_case "hkdf rfc5869 case 1" `Quick (fun () ->
        let ikm = Util.of_hex "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b" in
        let salt = Util.of_hex "000102030405060708090a0b0c" in
        let info = Util.of_hex "f0f1f2f3f4f5f6f7f8f9" in
        Alcotest.(check string) "okm"
          "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
          (hex (Hmac.hkdf ~salt ~info ~len:42 ikm)));
    Alcotest.test_case "chacha20 rfc8439" `Quick (fun () ->
        let key = Util.of_hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
        let nonce = Util.of_hex "000000000000004a00000000" in
        let pt =
          "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the \
           future, sunscreen would be it."
        in
        let ct = Chacha20.xor_stream ~key ~nonce ~counter:1 pt in
        Alcotest.(check string) "first block"
          "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
          (String.sub (hex ct) 0 64);
        Alcotest.(check string) "decrypt" pt (Chacha20.xor_stream ~key ~nonce ~counter:1 ct));
    Alcotest.test_case "chacha20 rejects bad key/nonce sizes" `Quick (fun () ->
        Alcotest.check_raises "key" (Invalid_argument "Chacha20.block: key") (fun () ->
            ignore (Chacha20.block ~key:"short" ~nonce:(String.make 12 '\000') ~counter:0));
        Alcotest.check_raises "nonce" (Invalid_argument "Chacha20.block: nonce") (fun () ->
            ignore (Chacha20.block ~key:(String.make 32 'k') ~nonce:"short" ~counter:0)));
    Alcotest.test_case "aead roundtrip and tamper detection" `Quick (fun () ->
        let key = String.make 32 'k' and nonce = String.make 12 'n' in
        let ct = Aead.seal ~key ~nonce ~ad:"header" "payload" in
        Alcotest.(check int) "overhead" (String.length "payload" + Aead.overhead) (String.length ct);
        Alcotest.(check (option string)) "open" (Some "payload") (Aead.open_ ~key ~nonce ~ad:"header" ct);
        Alcotest.(check (option string)) "wrong ad" None (Aead.open_ ~key ~nonce ~ad:"other" ct);
        Alcotest.(check (option string)) "wrong key" None
          (Aead.open_ ~key:(String.make 32 'x') ~nonce ~ad:"header" ct);
        let flipped = Bytes.of_string ct in
        Bytes.set flipped 0 (Char.chr (Char.code (Bytes.get flipped 0) lxor 1));
        Alcotest.(check (option string)) "bit flip" None
          (Aead.open_ ~key ~nonce ~ad:"header" (Bytes.to_string flipped));
        Alcotest.(check (option string)) "truncated" None
          (Aead.open_ ~key ~nonce ~ad:"header" (String.sub ct 0 3)));
    Alcotest.test_case "aead empty message" `Quick (fun () ->
        let key = String.make 32 'k' and nonce = String.make 12 'n' in
        let ct = Aead.seal ~key ~nonce "" in
        Alcotest.(check (option string)) "empty" (Some "") (Aead.open_ ~key ~nonce ct));
    Alcotest.test_case "drbg determinism and derivation" `Quick (fun () ->
        let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
        Alcotest.(check string) "same seed same stream" (hex (Drbg.bytes a 64)) (hex (Drbg.bytes b 64));
        let c = Drbg.create ~seed:"t" in
        Alcotest.(check bool) "different seed differs" false
          (Drbg.bytes (Drbg.create ~seed:"s") 64 = Drbg.bytes c 64);
        let d1 = Drbg.derive (Drbg.create ~seed:"s") "x" in
        let d2 = Drbg.derive (Drbg.create ~seed:"s") "x" in
        let d3 = Drbg.derive (Drbg.create ~seed:"s") "y" in
        Alcotest.(check string) "derive deterministic" (hex (Drbg.bytes d1 32)) (hex (Drbg.bytes d2 32));
        Alcotest.(check bool) "derive label matters" false (Drbg.bytes d1 32 = Drbg.bytes d3 32));
    Alcotest.test_case "drbg int bounds" `Quick (fun () ->
        let rng = Drbg.create ~seed:"bounds" in
        for _ = 1 to 1000 do
          let v = Drbg.int rng 7 in
          Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
        done;
        Alcotest.check_raises "zero bound" (Invalid_argument "Drbg.int") (fun () ->
            ignore (Drbg.int rng 0)));
    Alcotest.test_case "drbg float in [0,1)" `Quick (fun () ->
        let rng = Drbg.create ~seed:"floats" in
        for _ = 1 to 1000 do
          let f = Drbg.float rng in
          Alcotest.(check bool) "in range" true (f >= 0.0 && f < 1.0)
        done);
    Alcotest.test_case "laplace b=0 is deterministic" `Quick (fun () ->
        let rng = Drbg.create ~seed:"lap" in
        Alcotest.(check (float 0.0)) "mu exactly" 5.0 (Drbg.laplace rng ~mu:5.0 ~b:0.0));
    Alcotest.test_case "laplace sample mean near mu" `Quick (fun () ->
        let rng = Drbg.create ~seed:"lap2" in
        let n = 20_000 in
        let sum = ref 0.0 in
        for _ = 1 to n do
          sum := !sum +. Drbg.laplace rng ~mu:100.0 ~b:10.0
        done;
        let mean = !sum /. float_of_int n in
        Alcotest.(check bool) "mean within 1" true (Float.abs (mean -. 100.0) < 1.0));
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let rng = Drbg.create ~seed:"shuffle" in
        let a = Array.init 100 Fun.id in
        Drbg.shuffle rng a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "multiset preserved" (Array.init 100 Fun.id) sorted;
        Alcotest.(check bool) "actually shuffled" false (a = Array.init 100 Fun.id));
    Alcotest.test_case "util hex roundtrip and errors" `Quick (fun () ->
        Alcotest.(check string) "roundtrip" "\x00\xff\x10" (Util.of_hex (Util.to_hex "\x00\xff\x10"));
        Alcotest.check_raises "odd length" (Invalid_argument "Util.of_hex") (fun () ->
            ignore (Util.of_hex "abc"));
        Alcotest.check_raises "bad char" (Invalid_argument "Util.of_hex") (fun () ->
            ignore (Util.of_hex "zz")));
    Alcotest.test_case "util const_time_eq" `Quick (fun () ->
        Alcotest.(check bool) "equal" true (Util.const_time_eq "abc" "abc");
        Alcotest.(check bool) "differs" false (Util.const_time_eq "abc" "abd");
        Alcotest.(check bool) "length" false (Util.const_time_eq "abc" "abcd"));
    Alcotest.test_case "util be32/be64" `Quick (fun () ->
        Alcotest.(check int) "be32" 0xdeadbeef (Util.read_be32 (Util.be32 0xdeadbeef) 0);
        Alcotest.(check int) "be64" 0x1234567890ab (Util.read_be64 (Util.be64 0x1234567890ab) 0));
  ]

let prop name ?(count = 50) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let property_tests =
  [
    prop "chacha20 xor_stream is an involution"
      QCheck.(pair small_string (int_range 0 1000))
      (fun (msg, seed) ->
        let rng = Drbg.create ~seed:(string_of_int seed) in
        let key = Drbg.bytes rng 32 and nonce = Drbg.bytes rng 12 in
        Chacha20.xor_stream ~key ~nonce (Chacha20.xor_stream ~key ~nonce msg) = msg);
    prop "aead roundtrips arbitrary messages"
      QCheck.(pair string (int_range 0 1000))
      (fun (msg, seed) ->
        let rng = Drbg.create ~seed:(string_of_int seed) in
        let key = Drbg.bytes rng 32 and nonce = Drbg.bytes rng 12 in
        Aead.open_ ~key ~nonce (Aead.seal ~key ~nonce msg) = Some msg);
    prop "xor self-inverse" QCheck.(pair small_string small_string) (fun (a, b) ->
        QCheck.assume (String.length a = String.length b);
        Util.xor (Util.xor a b) b = a);
    prop "hmac differs on key and message" QCheck.(int_range 0 10_000) (fun seed ->
        let rng = Drbg.create ~seed:(string_of_int seed) in
        let k1 = Drbg.bytes rng 32 and k2 = Drbg.bytes rng 32 and m = Drbg.bytes rng 20 in
        Hmac.hmac_sha256 ~key:k1 m <> Hmac.hmac_sha256 ~key:k2 m);
  ]

let rfc8439_block_tests =
  [
    Alcotest.test_case "chacha20 rfc8439 block function" `Quick (fun () ->
        (* RFC 8439 §2.3.2 *)
        let key = Util.of_hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
        let nonce = Util.of_hex "000000090000004a00000000" in
        let expected =
          "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
          ^ "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        in
        Alcotest.(check string) "block" expected (hex (Chacha20.block ~key ~nonce ~counter:1));
        let buf = Bytes.make 64 'x' in
        Chacha20.block_into ~key ~nonce ~counter:1 buf;
        Alcotest.(check string) "block_into" expected (hex (Bytes.to_string buf));
        Alcotest.(check string) "keystream" expected
          (hex (Chacha20.xor_stream ~key ~nonce ~counter:1 (String.make 64 '\000'))));
  ]

let suite = unit_tests @ property_tests @ rfc8439_block_tests
