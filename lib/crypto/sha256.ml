(* SHA-256 on native ints: a 32-bit word is an OCaml int in [0, 2^32).
   The compression function is [Sha256_kernel.compress], generated
   straight-line by gen/gen_sha256.ml, which masks a sum once, when it
   becomes a word again. *)

(* The kernel's scratch, one per domain: the block the one-block entry
   pads its message into, and the state that [digest] collects its words
   in. *)
type scratch = { block : Bytes.t; words : int array }

let scratch = Domain.DLS.new_key (fun () -> { block = Bytes.create 64; words = Array.make 8 0 })

let init_state h =
  h.(0) <- 0x6a09e667; h.(1) <- 0xbb67ae85; h.(2) <- 0x3c6ef372; h.(3) <- 0xa54ff53a;
  h.(4) <- 0x510e527f; h.(5) <- 0x9b05688c; h.(6) <- 0x1f83d9ab; h.(7) <- 0x5be0cd19

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
  let fill = ctx.len land 63 in
  ctx.len <- ctx.len + len;
  let pos = ref off and rem = ref len in
  if fill > 0 then begin
    let take = Stdlib.min (64 - fill) len in
    Bytes.blit data off ctx.buf fill take;
    pos := off + take;
    rem := len - take;
    if fill + take = 64 then Sha256_kernel.compress ctx.h ctx.buf 0
  end;
  while !rem >= 64 do
    Sha256_kernel.compress ctx.h data !pos;
    pos := !pos + 64;
    rem := !rem - 64
  done;
  if !rem > 0 then Bytes.blit data !pos ctx.buf 0 !rem

let update ctx s = update_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

(* Pad the partial block with 0x80, zeros and the 64-bit big-endian bit
   length (a second block when fewer than 9 bytes are left): [ctx.h] is
   then the digest. *)
let finish ctx =
  let b = ctx.buf in
  let fill = ctx.len land 63 in
  Bytes.set b fill '\x80';
  if fill < 56 then Bytes.fill b (fill + 1) (55 - fill) '\000'
  else begin
    Bytes.fill b (fill + 1) (63 - fill) '\000';
    Sha256_kernel.compress ctx.h b 0;
    Bytes.fill b 0 56 '\000'
  end;
  Bytes.set_int64_be b 56 (Int64.shift_left (Int64.of_int ctx.len) 3);
  Sha256_kernel.compress ctx.h b 0

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
    let b = (Domain.DLS.get scratch).block in
    Bytes.blit_string prefix 0 b 0 plen;
    Bytes.blit buf pos b plen len;
    Bytes.set b n '\x80';
    Bytes.fill b (n + 1) (61 - n) '\000';
    Bytes.set_uint16_be b 62 (n * 8);
    init_state dst;
    Sha256_kernel.compress dst b 0
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
