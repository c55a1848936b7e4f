module Bigint = Alpenhorn_bigint.Bigint

(* ChaCha20 keystream with a 64-bit block counter spread over the RFC nonce
   space; rekeys never needed at simulation scales. Each refill writes the
   next block over [pool], through the nonce buffer, in place. *)
type t = { key : string; mutable counter : int; pool : Bytes.t; nonce : Bytes.t; mutable pos : int }

let create ~seed =
  {
    key = Sha256.digest ("alpenhorn-drbg-seed" ^ seed);
    counter = 0;
    pool = Bytes.create 64;
    nonce = Bytes.make 12 '\000';
    pos = 64;
  }

let derive t label = create ~seed:(Hmac.hmac_sha256 ~key:t.key ("derive:" ^ label))

let refill t =
  Bytes.set_int64_le t.nonce 0 (Int64.of_int t.counter);
  Chacha20.block_into ~key:t.key ~nonce:(Bytes.unsafe_to_string t.nonce) ~counter:0 t.pool;
  t.counter <- t.counter + 1;
  t.pos <- 0

let byte t =
  if t.pos >= 64 then refill t;
  let b = Bytes.get_uint8 t.pool t.pos in
  t.pos <- t.pos + 1;
  b

let bytes t n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if t.pos >= 64 then refill t;
    let len = Stdlib.min (n - !filled) (64 - t.pos) in
    Bytes.blit t.pool t.pos out !filled len;
    t.pos <- t.pos + len;
    filled := !filled + len
  done;
  Bytes.unsafe_to_string out

let int64 t =
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte t))
  done;
  !v

let int t bound =
  if bound <= 0 then invalid_arg "Drbg.int";
  (* rejection sampling on 62-bit values *)
  let limit = (max_int / bound) * bound in
  let rec go () =
    let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
    if v < limit then v mod bound else go ()
  in
  go ()

let float t =
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int v /. 9007199254740992.0 (* 2^53 *)

let bigint_below t bound = Bigint.random_below ~rand_bytes:(bytes t) bound
let bigint_bits t n = Bigint.random_bits ~rand_bytes:(bytes t) n

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let laplace t ~mu ~b =
  if b = 0.0 then mu
  else begin
    let u = float t -. 0.5 in
    let s = if u < 0.0 then -1.0 else 1.0 in
    mu -. (b *. s *. log (1.0 -. (2.0 *. Float.abs u)))
  end
