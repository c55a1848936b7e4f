(* Prints [Sha256_kernel]: the SHA-256 compression function of FIPS 180-4
   fully unrolled, or with [-mli], its interface. lib/crypto/dune runs it
   at build time.

   Every round and schedule index is a constant in the output, so there is
   no loop control and no schedule array: the sixteen message words and
   the 48 schedule words are let-bound locals, each computed just before
   the round that first reads it, and the round constants are literals.
   The state is renamed instead of shifted: round i reads a(i+3) .. a(i)
   as a, b, c, d and e(i+3) .. e(i) as e, f, g, h, and binds only the two
   new words a(i+4) and e(i+4). Words are native ints in [0, 2^32), as in
   sha256.ml. Addition mod 2^32 only needs the low 32 bits of its
   operands, so a sum of words and Σ/σ terms is masked once, when it
   becomes a word again; the Σ/σ terms carry garbage above bit 31 until
   then. A rotation right by n <= 25 of a word x is the low 32 bits of
   [xx lsr n], where xx holds x twice ([x lor (x lsl 32)]; bit 31 of the
   upper copy falls off the 63-bit int, and no rotation here reaches it). *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
    0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
    0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
    0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
    0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
    0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let line fmt = Printf.printf (fmt ^^ "\n")

(* w(i) = w(i−16) + σ0(w(i−15)) + w(i−7) + σ1(w(i−2)) *)
let emit_schedule i =
  let x = i - 15 and y = i - 2 in
  line "  let xx = w%d lor (w%d lsl 32) and yy = w%d lor (w%d lsl 32) in" x x y y;
  line "  let w%d =" i;
  line "    (w%d + ((xx lsr 7) lxor (xx lsr 18) lxor (w%d lsr 3)) + w%d" (i - 16) x (i - 7);
  line "     + ((yy lsr 17) lxor (yy lsr 19) lxor (w%d lsr 10)))" y;
  line "    land mask";
  line "  in"

(* t1 = h + Σ1(e) + ch(e, f, g) + k(i) + w(i); e(i+4) = d + t1 and
   a(i+4) = t1 + Σ0(a) + maj(a, b, c) *)
let emit_round i =
  let a = i + 3 and b = i + 2 and c = i + 1 and d = i in
  line "  let ee = e%d lor (e%d lsl 32) and aa = a%d lor (a%d lsl 32) in" a a a a;
  line "  let t1 =";
  line "    e%d + ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25))" d;
  line "    + (e%d lxor (e%d land (e%d lxor e%d))) + 0x%08x + w%d" c a b c k.(i) i;
  line "  in";
  line "  let e%d = (a%d + t1) land mask in" (i + 4) d;
  line "  let a%d =" (i + 4);
  line "    (t1 + ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22))";
  line "     + ((a%d land a%d) lor (a%d land (a%d lor a%d))))" a b c a b;
  line "    land mask";
  line "  in"

let emit_ml () =
  line "(* Generated by lib/crypto/gen/gen_sha256.ml; do not edit. *)";
  line "";
  line "let mask = 0xffffffff";
  line "";
  line "let compress (h : int array) (b : Bytes.t) off =";
  for i = 0 to 15 do
    line "  let w%d = Int32.to_int (Bytes.get_int32_be b (off + %d)) land mask in" i (4 * i)
  done;
  line "  let a3 = h.(0) and a2 = h.(1) and a1 = h.(2) and a0 = h.(3) in";
  line "  let e3 = h.(4) and e2 = h.(5) and e1 = h.(6) and e0 = h.(7) in";
  for i = 0 to 63 do
    if i >= 16 then emit_schedule i;
    emit_round i
  done;
  List.iteri
    (fun j v -> line "  h.(%d) <- (h.(%d) + %s) land mask;" j j v)
    [ "a67"; "a66"; "a65"; "a64"; "e67"; "e66"; "e65"; "e64" ];
  line "  ()"

let emit_mli () =
  line "(** The SHA-256 compression function, straight-line, behind {!Sha256}.";
  line "    Generated by lib/crypto/gen/gen_sha256.ml; do not edit. *)";
  line "";
  line "val compress : int array -> Bytes.t -> int -> unit";
  line "(** [compress h b off] folds the block [b\\[off, off+64)] into the eight";
  line "    state words [h.(0) .. h.(7)], each in [\\[0, 2^32)]. *)"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "-mli" ] -> emit_mli ()
  | [] -> emit_ml ()
  | _ -> invalid_arg "gen_sha256: the only argument is -mli"
