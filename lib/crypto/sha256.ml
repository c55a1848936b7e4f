(* SHA-256 on native ints: a 32-bit word is an OCaml int in [0, 2^32).
   Addition mod 2^32 only needs the low 32 bits of its operands, so a sum
   of words and Σ/σ terms is masked once, when it becomes a word again;
   the Σ/σ terms carry garbage above bit 31 until then. *)

let mask = 0xffffffff

let k = [|
  0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
  0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
  0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
  0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
  0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
  0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
  0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
  0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
|]

(* The kernel's scratch, one per domain: the 64-word message schedule, the
   block the one-block entry pads its message into, and the state that
   [digest] collects its words in. *)
type scratch = { w : int array; block : Bytes.t; words : int array }

let scratch =
  Domain.DLS.new_key (fun () -> { w = Array.make 64 0; block = Bytes.create 64; words = Array.make 8 0 })

let init_state h =
  h.(0) <- 0x6a09e667; h.(1) <- 0xbb67ae85; h.(2) <- 0x3c6ef372; h.(3) <- 0xa54ff53a;
  h.(4) <- 0x510e527f; h.(5) <- 0x9b05688c; h.(6) <- 0x1f83d9ab; h.(7) <- 0x5be0cd19

(* Fold the block [b[off, off+64)] into the state [h]. A rotation right by
   n <= 25 of a word x is the low 32 bits of [xx lsr n], where xx holds x
   twice ([x lor (x lsl 32)]; bit 31 of the upper copy falls off the 63-bit
   int, and no rotation here reaches it). *)
let compress w h b off =
  for i = 0 to 15 do
    Array.unsafe_set w i (Int32.to_int (Bytes.get_int32_be b (off + (4 * i))) land mask)
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let xx = x lor (x lsl 32) and yy = y lor (y lsl 32) in
    let s0 = (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3) in
    let s1 = (yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let e0 = !e and a0 = !a in
    let ee = e0 lor (e0 lsl 32) and aa = a0 lor (a0 lsl 32) in
    let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
    let ch = !g lxor (e0 land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
    let maj = (a0 land !b) lor (!c land (a0 lor !b)) in
    hh := !g; g := !f; f := e0; e := (!d + t1) land mask;
    d := !c; c := !b; b := a0; a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask; h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask; h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask; h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask; h.(7) <- (h.(7) + !hh) land mask

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* the partial block: its first [len mod 64] bytes *)
  mutable len : int; (* bytes hashed *)
}

let init () =
  let h = Array.make 8 0 in
  init_state h;
  { h; buf = Bytes.create 64; len = 0 }

let reset ctx =
  init_state ctx.h;
  ctx.len <- 0

let update_bytes ctx data off len =
  if off < 0 || len < 0 || off > Bytes.length data - len then invalid_arg "Sha256.update_bytes";
  let w = (Domain.DLS.get scratch).w in
  let fill = ctx.len land 63 in
  ctx.len <- ctx.len + len;
  let pos = ref off and rem = ref len in
  if fill > 0 then begin
    let take = Stdlib.min (64 - fill) len in
    Bytes.blit data off ctx.buf fill take;
    pos := off + take;
    rem := len - take;
    if fill + take = 64 then compress w ctx.h ctx.buf 0
  end;
  while !rem >= 64 do
    compress w ctx.h data !pos;
    pos := !pos + 64;
    rem := !rem - 64
  done;
  if !rem > 0 then Bytes.blit data !pos ctx.buf 0 !rem

let update ctx s = update_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

(* Pad the partial block with 0x80, zeros and the 64-bit big-endian bit
   length (a second block when fewer than 9 bytes are left): [ctx.h] is
   then the digest. *)
let finish ctx =
  let w = (Domain.DLS.get scratch).w and b = ctx.buf in
  let fill = ctx.len land 63 in
  Bytes.set b fill '\x80';
  if fill < 56 then Bytes.fill b (fill + 1) (55 - fill) '\000'
  else begin
    Bytes.fill b (fill + 1) (63 - fill) '\000';
    compress w ctx.h b 0;
    Bytes.fill b 0 56 '\000'
  end;
  Bytes.set_int64_be b 56 (Int64.shift_left (Int64.of_int ctx.len) 3);
  compress w ctx.h b 0

let string_of_words h =
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int h.(i))
  done;
  Bytes.unsafe_to_string out

let finalize ctx =
  finish ctx;
  string_of_words ctx.h

let digest_words_into dst ~prefix buf ~pos ~len =
  let plen = String.length prefix in
  let n = plen + len in
  if n <= 55 then begin
    (* prefix, slice, 0x80, zeros and the bit length (n <= 55 bytes, so
       at most 440 bits: the top six length bytes are zero) *)
    let s = Domain.DLS.get scratch in
    let b = s.block in
    Bytes.blit_string prefix 0 b 0 plen;
    Bytes.blit buf pos b plen len;
    Bytes.set b n '\x80';
    Bytes.fill b (n + 1) (61 - n) '\000';
    Bytes.set_uint16_be b 62 (n * 8);
    init_state dst;
    compress s.w dst b 0
  end
  else begin
    let c = init () in
    update c prefix;
    update_bytes c buf pos len;
    finish c;
    Array.blit c.h 0 dst 0 8
  end

let digest s =
  let words = (Domain.DLS.get scratch).words in
  digest_words_into words ~prefix:"" (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s);
  string_of_words words
