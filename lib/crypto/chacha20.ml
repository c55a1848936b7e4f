let m32 x = x land 0xffffffff
let rotl x n = m32 ((x lsl n) lor (x lsr (32 - n)))

let word s i =
  Char.code s.[i] lor (Char.code s.[i + 1] lsl 8) lor (Char.code s.[i + 2] lsl 16)
  lor (Char.code s.[i + 3] lsl 24)

let quarter st a b c d =
  st.(a) <- m32 (st.(a) + st.(b)); st.(d) <- rotl (st.(d) lxor st.(a)) 16;
  st.(c) <- m32 (st.(c) + st.(d)); st.(b) <- rotl (st.(b) lxor st.(c)) 12;
  st.(a) <- m32 (st.(a) + st.(b)); st.(d) <- rotl (st.(d) lxor st.(a)) 8;
  st.(c) <- m32 (st.(c) + st.(d)); st.(b) <- rotl (st.(b) lxor st.(c)) 7

(* The input state and the keystream words of the block being produced,
   one pair per domain, so a block allocates nothing. *)
type state = { input : int array; ks : int array }

let state = Domain.DLS.new_key (fun () -> { input = Array.make 16 0; ks = Array.make 16 0 })

let setup ~key ~nonce ~counter =
  if String.length key <> 32 then invalid_arg "Chacha20.block: key";
  if String.length nonce <> 12 then invalid_arg "Chacha20.block: nonce";
  let st = Domain.DLS.get state in
  let input = st.input in
  input.(0) <- 0x61707865; input.(1) <- 0x3320646e; input.(2) <- 0x79622d32; input.(3) <- 0x6b206574;
  for i = 0 to 7 do input.(4 + i) <- word key (4 * i) done;
  input.(12) <- m32 counter;
  for i = 0 to 2 do input.(13 + i) <- word nonce (4 * i) done;
  st

(* ks ← the block of [input], then step [input]'s block counter *)
let next_block { input; ks } =
  Array.blit input 0 ks 0 16;
  for _ = 1 to 10 do
    quarter ks 0 4 8 12; quarter ks 1 5 9 13; quarter ks 2 6 10 14; quarter ks 3 7 11 15;
    quarter ks 0 5 10 15; quarter ks 1 6 11 12; quarter ks 2 7 8 13; quarter ks 3 4 9 14
  done;
  for i = 0 to 15 do ks.(i) <- m32 (ks.(i) + input.(i)) done;
  input.(12) <- m32 (input.(12) + 1)

(* dst[pos, pos + len) ← src[pos, pos + len) xor the keystream block's
   first [len] bytes; with [src] all zeroes that is the keystream itself *)
let xor_block ks src dst pos len =
  if len = 64 then
    for i = 0 to 15 do
      let o = pos + (4 * i) in
      let m = String.get_uint16_le src o lor (String.get_uint16_le src (o + 2) lsl 16) in
      let v = ks.(i) lxor m in
      Bytes.set_uint16_le dst o (v land 0xffff);
      Bytes.set_uint16_le dst (o + 2) (v lsr 16)
    done
  else
    for i = 0 to len - 1 do
      let k = (ks.(i lsr 2) lsr (8 * (i land 3))) land 0xff in
      Bytes.unsafe_set dst (pos + i) (Char.unsafe_chr (Char.code src.[pos + i] lxor k))
    done

let zero_block = String.make 64 '\000'

let block_into ~key ~nonce ~counter dst =
  if Bytes.length dst <> 64 then invalid_arg "Chacha20.block_into: dst";
  let st = setup ~key ~nonce ~counter in
  next_block st;
  xor_block st.ks zero_block dst 0 64

let block ~key ~nonce ~counter =
  let out = Bytes.create 64 in
  block_into ~key ~nonce ~counter out;
  Bytes.unsafe_to_string out

let xor_stream ~key ~nonce ?(counter = 1) msg =
  let n = String.length msg in
  let out = Bytes.create n in
  let st = setup ~key ~nonce ~counter in
  let pos = ref 0 in
  while !pos < n do
    next_block st;
    let len = Stdlib.min 64 (n - !pos) in
    xor_block st.ks msg out !pos len;
    pos := !pos + len
  done;
  Bytes.unsafe_to_string out
