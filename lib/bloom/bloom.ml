module Sha256 = Alpenhorn_crypto.Sha256
module Codec = Alpenhorn_codec.Codec

type t = { bits : Bytes.t; nbits : int; k : int; mutable n : int }

let target_fp_rate = 1e-10

(* At the optimal point, bits/element = -log2(fp)/ln 2 ≈ 47.9 -> 48, and
   k = bits/element * ln 2 ≈ 33. *)
let bits_per_element = 48
let optimal_hashes = 33

let create ~expected_elements =
  let n = Stdlib.max 1 expected_elements in
  let nbits = n * bits_per_element in
  { bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits; k = optimal_hashes; n = 0 }

(* Bounds the per-lookup work a decoded header can ask for; the paper's
   operating point uses 33. *)
let max_hashes = 64

let create_custom ~bits ~hashes =
  if bits <= 0 || hashes <= 0 || hashes > max_hashes then invalid_arg "Bloom.create_custom";
  { bits = Bytes.make ((bits + 7) / 8) '\000'; nbits = bits; k = hashes; n = 0 }

(* Digest words of "bloom" ‖ element, one array per domain: filters are
   built per shard on the domain pool and queried from pool domains. *)
let words = Domain.DLS.new_key (fun () -> Array.make 8 0)

(* Double hashing (Kirsch-Mitzenmacher) over two 62-bit values, which
   preserves the asymptotic FP rate: h1 and h2 are digest bytes 0-7 and
   8-15 read big-endian, [land max_int]; index i is
   [abs (h1 + i*h2) mod nbits], wrapping as OCaml's 63-bit ints do
   ([abs min_int] is negative: [Bytes.get] rejects that index). The
   digest words land in the domain's [words]. *)
let hash buf ~pos ~len =
  let d = Domain.DLS.get words in
  Sha256.digest_words_into d ~prefix:"bloom" buf ~pos ~len;
  d

let h1 d = ((d.(0) lsl 32) lor d.(1)) land max_int

let h2 t d =
  let h2 = ((d.(2) lsl 32) lor d.(3)) land max_int in
  if h2 mod t.nbits = 0 then h2 + 1 else h2

(* Sets all k bits without testing them first: on a filter about half
   full, a test-then-set branch mispredicts about every other bit. *)
let add_sub t buf ~pos ~len =
  let d = hash buf ~pos ~len in
  let h1 = h1 d and h2 = h2 t d and nbits = t.nbits and bits = t.bits in
  for i = 0 to t.k - 1 do
    let idx = abs (h1 + (i * h2)) mod nbits in
    let byte = idx lsr 3 in
    let b = Char.code (Bytes.get bits byte) lor (1 lsl (idx land 7)) in
    Bytes.unsafe_set bits byte (Char.unsafe_chr b)
  done;
  t.n <- t.n + 1

(* Stops at the first clear bit: a miss reads about two bits. *)
let mem_sub t buf ~pos ~len =
  let d = hash buf ~pos ~len in
  let h1 = h1 d and h2 = h2 t d and nbits = t.nbits and bits = t.bits in
  let all = ref true and i = ref 0 in
  while !all && !i < t.k do
    let idx = abs (h1 + (!i * h2)) mod nbits in
    all := Char.code (Bytes.get bits (idx lsr 3)) land (1 lsl (idx land 7)) <> 0;
    incr i
  done;
  !all

let add t elem = add_sub t (Bytes.unsafe_of_string elem) ~pos:0 ~len:(String.length elem)
let mem t elem = mem_sub t (Bytes.unsafe_of_string elem) ~pos:0 ~len:(String.length elem)

let size_bits t = t.nbits
let size_bytes t = Bytes.length t.bits + 12 (* header included, matching to_bytes *)
let num_hashes t = t.k
let count t = t.n

(* Geometry header (bits, hashes, count), then the bit array. Encoding
   reads the live array in place: [Codec.encode] copies it out before
   returning, so the filter is never aliased. *)
let codec =
  Codec.(
    map
      (fun (nbits, k, n, bits) ->
        if nbits <= 0 || k <= 0 || k > max_hashes || String.length bits <> (nbits + 7) / 8 then None
        else Some { bits = Bytes.of_string bits; nbits; k; n })
      (fun t -> (t.nbits, t.k, t.n, Bytes.unsafe_to_string t.bits))
      (tup4 u32 u32 u32 rest))

let to_bytes t = Codec.encode codec t
let of_bytes s = Codec.decode codec s

let false_positive_estimate t =
  let frac = 1.0 -. exp (-.float_of_int (t.k * t.n) /. float_of_int t.nbits) in
  frac ** float_of_int t.k
