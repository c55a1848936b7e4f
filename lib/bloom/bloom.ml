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
   [abs (h1 + i*h2) mod nbits], wrapping as OCaml's 63-bit ints do. With
   [set], sets every index and reports whether all were set already;
   otherwise stops at the first clear bit. *)
let walk t ~set buf ~pos ~len =
  let d = Domain.DLS.get words in
  Sha256.digest_words_into d ~prefix:"bloom" buf ~pos ~len;
  let h1 = ((d.(0) lsl 32) lor d.(1)) land max_int
  and h2 = ((d.(2) lsl 32) lor d.(3)) land max_int in
  let nbits = t.nbits and bits = t.bits in
  let h2 = if h2 mod nbits = 0 then h2 + 1 else h2 in
  let all = ref true and i = ref 0 in
  while !i < t.k && (set || !all) do
    (* abs min_int is negative: Bytes.get rejects that index *)
    let idx = abs (h1 + (!i * h2)) mod nbits in
    let byte = idx lsr 3 and m = 1 lsl (idx land 7) in
    let b = Char.code (Bytes.get bits byte) in
    if b land m = 0 then begin
      all := false;
      if set then Bytes.unsafe_set bits byte (Char.unsafe_chr (b lor m))
    end;
    incr i
  done;
  !all

let add_sub t buf ~pos ~len =
  ignore (walk t ~set:true buf ~pos ~len);
  t.n <- t.n + 1

let mem_sub t buf ~pos ~len = walk t ~set:false buf ~pos ~len
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
