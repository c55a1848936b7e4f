module Sha256 = Alpenhorn_crypto.Sha256
module Util = Alpenhorn_crypto.Util
module Bloom = Alpenhorn_bloom.Bloom
module Parallel = Alpenhorn_parallel.Parallel

type t = Plain of string list array | Filters of Bloom.t array

let num_mailboxes_for ~expected_real ~noise_mu ~chain_length =
  let per_mailbox = noise_mu *. float_of_int chain_length in
  Stdlib.max 1 (int_of_float (Float.round (float_of_int expected_real /. per_mailbox)))

let mailbox_of_identity = Mailbox_id.of_identity

let distribute ~num_mailboxes ~mode payloads =
  let buckets = Array.make num_mailboxes [] in
  let dropped = ref 0 in
  Array.iter
    (fun p ->
      match Payload.decode p with
      | Some (mb, body) when mb >= 0 && mb < num_mailboxes -> buckets.(mb) <- body :: buckets.(mb)
      | Some _ | None -> incr dropped)
    payloads;
  let t =
    match mode with
    | `AddFriend -> Plain buckets
    | `Dialing ->
      Filters
        (Array.map
           (fun tokens ->
             let f = Bloom.create ~expected_elements:(Stdlib.max 1 (List.length tokens)) in
             List.iter (Bloom.add f) tokens;
             f)
           buckets)
  in
  (t, !dropped)

(* Sharded distribution (§5.1 CDN model): payloads are grouped by the
   contiguous-prefix shard of their mailbox id with one counting-sort pass
   over flat int buffers — no per-mailbox lists, no substring per payload —
   then each shard is built independently on the domain pool. Plain shards
   are streamed through a bounded {!Stream_writer} as length-prefixed
   records (each record body is the full payload, mailbox header included,
   so clients filter for their own mailbox after download); dialing shards
   pack every token in the shard's mailbox range into one Bloom filter,
   gathered into a staging buffer and hashed from it via {!Bloom.add_sub}. *)

type sharded = Plain_shards of string array | Filter_shards of Bloom.t array

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

(* Adds the tokens of [payloads.(order.(j))], [lo <= j < hi], to [f]: the
   same bytes as the unsharded [Bloom.add body], the token being the
   payload minus its mailbox header. A token longer than the buffer is
   added straight from its payload. *)
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

let distribute_sharded ~shard ~mode payloads =
  let num_mailboxes = Shard.num_mailboxes shard in
  let num_shards = Shard.size shard in
  let n = Array.length payloads in
  (* Pass 1: shard id per payload (-1 = cover traffic / corrupt header),
     plus per-shard counts. *)
  let sid = Array.make n (-1) in
  let counts = Array.make num_shards 0 in
  let dropped = ref 0 in
  for i = 0 to n - 1 do
    let mb = Payload.mailbox payloads.(i) in
    if mb >= 0 && mb < num_mailboxes then begin
      let s = Shard.of_mailbox shard mb in
      sid.(i) <- s;
      counts.(s) <- counts.(s) + 1
    end
    else incr dropped
  done;
  (* Pass 2: prefix sums + stable permutation grouping payload indices by
     shard, so pass 3 reads each shard as one contiguous slice. *)
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
  (content, !dropped)

let size_bytes t =
  match t with
  | Plain buckets -> Array.map (fun l -> List.fold_left (fun acc s -> acc + String.length s) 0 l) buckets
  | Filters fs -> Array.map Bloom.size_bytes fs

let plain_exn = function Plain p -> p | Filters _ -> invalid_arg "Mailbox.plain_exn"
let filters_exn = function Filters f -> f | Plain _ -> invalid_arg "Mailbox.filters_exn"

let sharded_size_bytes = function
  | Plain_shards blobs -> Array.map String.length blobs
  | Filter_shards fs -> Array.map Bloom.size_bytes fs

let plain_shards_exn = function
  | Plain_shards p -> p
  | Filter_shards _ -> invalid_arg "Mailbox.plain_shards_exn"

let filter_shards_exn = function
  | Filter_shards f -> f
  | Plain_shards _ -> invalid_arg "Mailbox.filter_shards_exn"
