module Params = Alpenhorn_pairing.Params
module Wire = Alpenhorn_core.Wire
module Client = Alpenhorn_core.Client
module Mailbox = Alpenhorn_mixnet.Mailbox
module Onion = Alpenhorn_mixnet.Onion
module Payload = Alpenhorn_mixnet.Payload
module Ibe = Alpenhorn_ibe.Ibe
module Dh = Alpenhorn_dh.Dh
module Keywheel = Alpenhorn_keywheel.Keywheel
module Drbg = Alpenhorn_crypto.Drbg

type machine = {
  cores : int;
  client_cores : int;
  t_unwrap : float;
  t_ibe_prepare : float;
  t_ibe_decrypt : float;
  t_ibe_encrypt : float;
  t_token : float;
  t_pairing : float;
  link_bandwidth : float;
  client_bandwidth : float;
  rtt : float;
}

(* c4.8xlarge constants; t_unwrap fitted so that the 10M-user 3-server
   points land on the paper's 152 s (add-friend) and 118 s (dialing). *)
let paper_machine =
  {
    cores = 36;
    client_cores = 4;
    t_unwrap = 140e-6;
    (* the paper reports decryptions per second only *)
    t_ibe_prepare = 0.0;
    t_ibe_decrypt = 1.0 /. 800.0;
    t_ibe_encrypt = 1.0 /. 800.0;
    t_token = 1e-6;
    (* the paper's IBE decrypt is pairing-dominated: ~1 ms of the 1.25 ms *)
    t_pairing = 1.0e-3;
    link_bandwidth = 10e9 /. 8.0;
    client_bandwidth = 1e9 /. 8.0;
    rtt = 0.08;
  }

let time_per_op f reps =
  (* warm up once, then time *)
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

(* Effective parallelism of the domain pool on this host, measured on the
   actual batch-unwrap path rather than assumed from the pool size: on an
   oversubscribed or single-core machine a 4-domain pool may deliver ~1x,
   and the pipeline model should predict with that number. *)
let measure_pool_speedup pool (params : Params.t) ~sk ~onion =
  let n = Alpenhorn_parallel.Parallel.size pool in
  if n <= 1 then 1.0
  else begin
    Params.force_tables params;
    let batch = Array.make 64 onion in
    let unwrap o = Onion.unwrap params ~sk o in
    let seq = time_per_op (fun () -> Array.map unwrap batch) 3 in
    let par = time_per_op (fun () -> Alpenhorn_parallel.Parallel.map pool unwrap batch) 3 in
    if par <= 0.0 then 1.0 else Float.max 1.0 (Float.min (float_of_int n) (seq /. par))
  end

let measure_local ?pool (params : Params.t) =
  let rng = Drbg.create ~seed:"costmodel-measure" in
  let msk, mpk = Ibe.setup params rng in
  let d_id = Ibe.extract params msk "probe@local" in
  (* the scan as Client runs it: one preparation per mailbox, then the
     trial decryptions in batches under the prepared key, nearly all of
     them misses (requests to other users, and noise); a large mailbox's
     batches are full *)
  let t_ibe_prepare = time_per_op (fun () -> Ibe.with_prepared_key params d_id ignore) 5 in
  let misses =
    List.init Client.scan_chunk (fun i ->
        Ibe.encrypt params rng mpk ~id:(Printf.sprintf "other%d@local" i)
          (Drbg.bytes rng (Wire.request_plaintext_size params)))
  in
  let t_ibe_decrypt =
    Ibe.with_prepared_key params d_id (fun key ->
        time_per_op (fun () -> Ibe.decrypt_batch params key ~decode:(Wire.decode_request params) misses) 3)
    /. float_of_int Client.scan_chunk
  in
  let t_ibe_encrypt =
    time_per_op (fun () -> Ibe.encrypt params rng mpk ~id:"probe@local" (String.make 64 'x')) 5
  in
  let ssk, spk = Dh.keygen params rng in
  let onion = Onion.wrap params rng ~server_pks:[ spk ] (String.make 64 'y') in
  let t_unwrap = time_per_op (fun () -> Onion.unwrap params ~sk:ssk onion) 10 in
  let t_token =
    time_per_op (fun () -> Alpenhorn_crypto.Hmac.hmac_sha256 ~key:(String.make 32 'k') "tok") 1000
  in
  (* the raw pairing (uncached: pair_cached would measure a table lookup) *)
  let t_pairing =
    time_per_op (fun () -> Alpenhorn_pairing.Pairing.pair params d_id mpk) 5
  in
  let cores =
    match pool with
    | None -> 1
    | Some p ->
      let speedup = measure_pool_speedup p params ~sk:ssk ~onion in
      Stdlib.max 1 (int_of_float (Float.round speedup))
  in
  {
    cores;
    client_cores = cores;
    t_unwrap;
    t_ibe_prepare;
    t_ibe_decrypt;
    t_ibe_encrypt;
    t_token;
    t_pairing;
    link_bandwidth = 10e9 /. 8.0;
    client_bandwidth = 1e9 /. 8.0;
    rtt = 0.08;
  }

let pp_machine fmt m =
  Format.fprintf fmt
    "@[<v>machine calibration:@,\
     \  cores            %d (client: %d)@,\
     \  t_unwrap         %.3g s@,\
     \  t_ibe_prepare    %.3g s@,\
     \  t_ibe_decrypt    %.3g s@,\
     \  t_ibe_encrypt    %.3g s@,\
     \  t_token          %.3g s@,\
     \  t_pairing        %.3g s@,\
     \  link_bandwidth   %.3g B/s@,\
     \  client_bandwidth %.3g B/s@,\
     \  rtt              %.3g s@]"
    m.cores m.client_cores m.t_unwrap m.t_ibe_prepare m.t_ibe_decrypt m.t_ibe_encrypt m.t_token
    m.t_pairing m.link_bandwidth m.client_bandwidth m.rtt

let machine_to_json m =
  Alpenhorn_telemetry.Telemetry.Json.(
    to_string
      (Obj
         [
           ("cores", int m.cores);
           ("client_cores", int m.client_cores);
           ("t_unwrap", Num m.t_unwrap);
           ("t_ibe_prepare", Num m.t_ibe_prepare);
           ("t_ibe_decrypt", Num m.t_ibe_decrypt);
           ("t_ibe_encrypt", Num m.t_ibe_encrypt);
           ("t_token", Num m.t_token);
           ("t_pairing", Num m.t_pairing);
           ("link_bandwidth", Num m.link_bandwidth);
           ("client_bandwidth", Num m.client_bandwidth);
           ("rtt", Num m.rtt);
         ]))

(* one key preparation on the scanning domain, then the trial
   decryptions across the client's cores *)
let addfriend_scan_seconds m ~requests =
  m.t_ibe_prepare +. (requests *. m.t_ibe_decrypt /. float_of_int m.client_cores)

(* one keywheel hash per expected token, across the client's cores *)
let dialing_scan_seconds m ~tokens = tokens *. m.t_token /. float_of_int m.client_cores

type protocol_costs = {
  request_bytes : int;
  dial_token_bytes : int;
  bloom_bits_per_token : int;
  onion_layer_bytes : int;
  payload_header_bytes : int;
}

let protocol_costs (params : Params.t) =
  {
    request_bytes = Wire.request_ciphertext_size params;
    dial_token_bytes = Wire.dial_token_size;
    bloom_bits_per_token = Alpenhorn_bloom.Bloom.bits_per_element;
    onion_layer_bytes = Onion.layer_overhead params;
    payload_header_bytes = Payload.overhead;
  }

type round_breakdown = {
  server_seconds : float array;
  download_seconds : float;
  scan_seconds : float;
  total_seconds : float;
  mailbox_bytes : int;
  uplink_bytes : int;
}

let round_plan ~n_users ~n_servers ~noise_mu ~active_fraction ~shards =
  Mailbox.plan
    ~expected_real:(int_of_float (Float.round (float_of_int n_users *. active_fraction)))
    ~noise_mu ~chain_length:n_servers ~shards

(* a payload of [body_bytes] under [layers] onion layers *)
let onion_bytes pc ~layers ~body_bytes =
  body_bytes + pc.payload_header_bytes + (layers * pc.onion_layer_bytes)

(* One round: each server unwraps the batch it receives, generates its
   noise, µ per mailbox, and ships the grown batch to the next hop; then
   the client downloads [mailbox_bytes] and scans them. *)
let breakdown m pc ~n_users ~n_servers ~noise_mu ~(plan : Mailbox.plan) ~t_noise ~body_bytes
    ~mailbox_bytes ~scan_seconds =
  let noise_per_server = noise_mu *. float_of_int plan.num_mailboxes in
  let server_seconds = Array.make n_servers 0.0 in
  let batch = ref (float_of_int n_users) in
  for i = 0 to n_servers - 1 do
    let unwrap = !batch *. m.t_unwrap /. float_of_int m.cores in
    let noise_gen = noise_per_server *. t_noise /. float_of_int m.cores in
    batch := !batch +. noise_per_server;
    (* bytes on the wire to the next hop: the body under the layers left *)
    let msg_bytes = float_of_int (onion_bytes pc ~layers:(n_servers - 1 - i) ~body_bytes) in
    let transfer = !batch *. msg_bytes /. m.link_bandwidth in
    server_seconds.(i) <- unwrap +. noise_gen +. transfer +. m.rtt
  done;
  let download_seconds = float_of_int mailbox_bytes /. m.client_bandwidth in
  {
    server_seconds;
    download_seconds;
    scan_seconds;
    total_seconds = Array.fold_left ( +. ) 0.0 server_seconds +. download_seconds +. scan_seconds;
    mailbox_bytes;
    uplink_bytes = onion_bytes pc ~layers:n_servers ~body_bytes;
  }

let addfriend_round m pc ~n_users ~n_servers ~noise_mu ~active_fraction ?mailbox_requests () =
  let plan = round_plan ~n_users ~n_servers ~noise_mu ~active_fraction ~shards:0 in
  let requests =
    Option.value mailbox_requests ~default:(int_of_float (Float.round plan.mailbox_load))
  in
  breakdown m pc ~n_users ~n_servers ~noise_mu ~plan ~t_noise:m.t_ibe_encrypt
    ~body_bytes:pc.request_bytes ~mailbox_bytes:(requests * pc.request_bytes)
    ~scan_seconds:(addfriend_scan_seconds m ~requests:(float_of_int requests))

let dialing_round m pc ~n_users ~n_servers ~noise_mu ~active_fraction ~friends ~intents
    ?mailbox_tokens () =
  let plan = round_plan ~n_users ~n_servers ~noise_mu ~active_fraction ~shards:0 in
  let tokens =
    Option.value mailbox_tokens ~default:(int_of_float (Float.round plan.mailbox_load))
  in
  breakdown m pc ~n_users ~n_servers ~noise_mu ~plan ~t_noise:m.t_token
    ~body_bytes:pc.dial_token_bytes
    ~mailbox_bytes:(tokens * pc.bloom_bits_per_token / 8)
    ~scan_seconds:(dialing_scan_seconds m ~tokens:(float_of_int (friends * intents)))

(* download of one balanced mailbox of [message_bytes]-byte entries plus
   the uplink, per second of round *)
let bandwidth pc ~n_users ~n_servers ~noise_mu ~active_fraction ~round_seconds ~body_bytes
    ~message_bytes =
  let plan = round_plan ~n_users ~n_servers ~noise_mu ~active_fraction ~shards:0 in
  let uplink = float_of_int (onion_bytes pc ~layers:n_servers ~body_bytes) in
  ((plan.mailbox_load *. message_bytes) +. uplink) /. round_seconds

let addfriend_bandwidth pc =
  bandwidth pc ~body_bytes:pc.request_bytes ~message_bytes:(float_of_int pc.request_bytes)

let dialing_bandwidth pc =
  bandwidth pc ~body_bytes:pc.dial_token_bytes
    ~message_bytes:(float_of_int pc.bloom_bits_per_token /. 8.0)
