module Drbg = Alpenhorn_crypto.Drbg
module Bloom = Alpenhorn_bloom.Bloom
module Parallel = Alpenhorn_parallel.Parallel

type t = Plain of string list array | Filters of Bloom.t array
type sharded = Plain_shards of string array | Filter_shards of Bloom.t array

(* ---- the §6/§5.1 round plan ---- *)

let num_mailboxes_for ~expected_real ~noise_mu ~chain_length =
  let per_mailbox = noise_mu *. float_of_int chain_length in
  Stdlib.max 1 (int_of_float (Float.round (float_of_int expected_real /. per_mailbox)))

type plan = { num_mailboxes : int; num_shards : int; mailbox_load : float; shard_load : float }

let expected_load ~expected_real ~noise_mu ~chain_length ~num_mailboxes =
  (float_of_int expected_real /. float_of_int num_mailboxes)
  +. (noise_mu *. float_of_int chain_length)

let plan ~expected_real ~noise_mu ~chain_length ~shards =
  if shards < 0 then invalid_arg "Mailbox.plan: shards";
  let k = Stdlib.max shards (num_mailboxes_for ~expected_real ~noise_mu ~chain_length) in
  let s = if shards = 0 then k else shards in
  let mailbox_load = expected_load ~expected_real ~noise_mu ~chain_length ~num_mailboxes:k in
  let shard_load = mailbox_load *. (float_of_int k /. float_of_int s) in
  { num_mailboxes = k; num_shards = s; mailbox_load; shard_load }

let noise_count rng ~mu ~b = Int.max 0 (int_of_float (Float.round (Drbg.laplace rng ~mu ~b)))

let mailbox_of_identity = Mailbox_id.of_identity

(* ---- distribution: one counting sort for every mode and shard count ---- *)

(* Dial tokens are gathered, a chunk at a time, into a staging buffer
   owned by the domain, then hashed from there: the gather's reads of
   shuffled payloads are independent of each other, so their cache misses
   overlap, where the hash loop would take them one token at a time. *)
let stage_tokens = 1024
let stage_bytes = 65536

type stage = { buf : Bytes.t; ends : int array (* token i is [buf[ends(i-1), ends(i))] *) }

let stage =
  Domain.DLS.new_key (fun () ->
      { buf = Bytes.create stage_bytes; ends = Array.make stage_tokens 0 })

(* Adds the tokens of [payloads.(order.(j))], [lo <= j < hi], to [f], a
   token being its payload minus the mailbox header. A token longer than
   the buffer is added straight from its payload. *)
let pack_tokens f payloads order lo hi =
  let { buf; ends } = Domain.DLS.get stage in
  let j = ref lo in
  while !j < hi do
    let count = ref 0 and fill = ref 0 in
    while
      !j < hi
      && !count < stage_tokens
      && String.length payloads.(order.(!j)) - Payload.overhead <= stage_bytes - !fill
    do
      let p = payloads.(order.(!j)) in
      let len = String.length p - Payload.overhead in
      Bytes.blit_string p Payload.overhead buf !fill len;
      fill := !fill + len;
      ends.(!count) <- !fill;
      incr count;
      incr j
    done;
    if !count = 0 then begin
      let p = payloads.(order.(!j)) in
      Bloom.add_sub f (Bytes.unsafe_of_string p) ~pos:Payload.overhead
        ~len:(String.length p - Payload.overhead);
      incr j
    end;
    let start = ref 0 in
    for i = 0 to !count - 1 do
      Bloom.add_sub f buf ~pos:!start ~len:(ends.(i) - !start);
      start := ends.(i)
    done
  done

(* Groups payload indices by shard: pass 1 reads each payload's 4-byte
   header into a shard id (-1 = cover traffic or a corrupt header) and
   counts per shard, with no substring per payload; pass 2 turns the
   counts into offsets and places the indices stably, so shard s is
   [order.(offsets.(s)) .. order.(offsets.(s + 1) - 1)], in payload order,
   and the other [n - offsets.(S)] payloads are dropped. *)
let group shard payloads =
  let num_mailboxes = Shard.num_mailboxes shard in
  let num_shards = Shard.size shard in
  let n = Array.length payloads in
  let sid = Array.make n (-1) in
  let counts = Array.make num_shards 0 in
  for i = 0 to n - 1 do
    let mb = Payload.mailbox payloads.(i) in
    if mb >= 0 && mb < num_mailboxes then begin
      let s = Shard.of_mailbox shard mb in
      sid.(i) <- s;
      counts.(s) <- counts.(s) + 1
    end
  done;
  let offsets = Array.make (num_shards + 1) 0 in
  for s = 0 to num_shards - 1 do
    offsets.(s + 1) <- offsets.(s) + counts.(s)
  done;
  let next = Array.copy offsets in
  let order = Array.make (Stdlib.max 1 offsets.(num_shards)) 0 in
  for i = 0 to n - 1 do
    let s = sid.(i) in
    if s >= 0 then begin
      order.(next.(s)) <- i;
      next.(s) <- next.(s) + 1
    end
  done;
  (offsets, order)

(* Pass 3 builds each shard independently on the domain pool: a dialing
   shard is one Bloom filter over its tokens, an add-friend shard one
   {!Stream_writer} blob of length-prefixed records, each the full
   payload (mailbox header included, so clients filter for their own
   mailbox after download). *)
let distribute_sharded ~shard ~mode payloads =
  let offsets, order = group shard payloads in
  let num_shards = Shard.size shard in
  let pool = Parallel.get () in
  let content =
    match mode with
    | `Dialing ->
      Filter_shards
        (Parallel.map_range pool
           (fun s ->
             let lo = offsets.(s) and hi = offsets.(s + 1) in
             let f = Bloom.create ~expected_elements:(Stdlib.max 1 (hi - lo)) in
             pack_tokens f payloads order lo hi;
             f)
           num_shards)
    | `AddFriend ->
      Plain_shards
        (Parallel.map_range pool
           (fun s ->
             let lo = offsets.(s) and hi = offsets.(s + 1) in
             let buf = Buffer.create (Stdlib.max 64 ((hi - lo) * 64)) in
             let w = Stream_writer.create (Stream_writer.buffer_sink buf) in
             for j = lo to hi - 1 do
               Stream_writer.write_record w payloads.(order.(j))
             done;
             Stream_writer.flush w;
             Buffer.contents buf)
           num_shards)
  in
  (content, Array.length payloads - offsets.(num_shards))

let plain_shards_exn = function
  | Plain_shards p -> p
  | Filter_shards _ -> invalid_arg "Mailbox.plain_shards_exn"

let filter_shards_exn = function
  | Filter_shards f -> f
  | Plain_shards _ -> invalid_arg "Mailbox.filter_shards_exn"

(* One shard per mailbox. An add-friend mailbox is its bodies, headers
   stripped, the last payload first. *)
let distribute ~num_mailboxes ~mode payloads =
  let shard = Shard.create ~num_shards:num_mailboxes ~num_mailboxes in
  match mode with
  | `Dialing ->
    let shards, dropped = distribute_sharded ~shard ~mode payloads in
    (Filters (filter_shards_exn shards), dropped)
  | `AddFriend ->
    let offsets, order = group shard payloads in
    let body j =
      let p = payloads.(order.(j)) in
      String.sub p Payload.overhead (String.length p - Payload.overhead)
    in
    ( Plain
        (Array.init num_mailboxes (fun m ->
             let hi = offsets.(m + 1) in
             List.init (hi - offsets.(m)) (fun i -> body (hi - 1 - i)))),
      Array.length payloads - offsets.(num_mailboxes) )

let size_bytes = function
  | Plain buckets -> Array.map (fun l -> List.fold_left (fun acc s -> acc + String.length s) 0 l) buckets
  | Filters fs -> Array.map Bloom.size_bytes fs

let plain_exn = function Plain p -> p | Filters _ -> invalid_arg "Mailbox.plain_exn"
let filters_exn = function Filters f -> f | Plain _ -> invalid_arg "Mailbox.filters_exn"

let sharded_size_bytes = function
  | Plain_shards blobs -> Array.map String.length blobs
  | Filter_shards fs -> Array.map Bloom.size_bytes fs
