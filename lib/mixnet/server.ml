module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Dh = Alpenhorn_dh.Dh
module Tel = Alpenhorn_telemetry.Telemetry
module Trace = Alpenhorn_telemetry.Trace
module Events = Alpenhorn_telemetry.Events
module Parallel = Alpenhorn_parallel.Parallel

(* Per-server metric handles, resolved once at construction so the round
   hot path never touches the registry (DESIGN.md §7). *)
type tel = {
  c_in : Tel.Counter.t;
  c_out : Tel.Counter.t;
  c_dropped : Tel.Counter.t;
  c_noise : Tel.Counter.t;
  h_unwrap : Tel.Histogram.t;
  h_noise_gen : Tel.Histogram.t;
  h_batch : Tel.Histogram.t;
}

type t = {
  params : Params.t;
  rng : Drbg.t;
  pos : int;
  chain_length : int;
  mutable round_key : (Dh.secret * Dh.public) option;
  mutable down : bool;
  tel : tel;
}

type noise_body = mailbox:int -> string

let create params ~rng ~position ~chain_length =
  if position < 0 || position >= chain_length then invalid_arg "Server.create: position";
  let labels = [ ("server", string_of_int position) ] in
  let tel =
    {
      c_in = Tel.Counter.v Tel.default ~labels "mix.onions_in";
      c_out = Tel.Counter.v Tel.default ~labels "mix.onions_out";
      c_dropped = Tel.Counter.v Tel.default ~labels "mix.onions_dropped";
      c_noise = Tel.Counter.v Tel.default ~labels "mix.noise_generated";
      h_unwrap = Tel.Histogram.v Tel.default ~labels "mix.unwrap_seconds";
      h_noise_gen = Tel.Histogram.v Tel.default ~labels "mix.noise_seconds";
      h_batch = Tel.Histogram.v Tel.default ~labels "mix.batch_size";
    }
  in
  { params; rng; pos = position; chain_length; round_key = None; down = false; tel }


(* Crash/restart model the anytrust failure mode (§4.5): a down server
   refuses to process; its round key is dropped immediately so an aborted
   round can never be resumed with stale keys. *)
let crash t =
  t.down <- true;
  t.round_key <- None

let restart t = t.down <- false
let is_down t = t.down

let new_round t =
  if t.down then invalid_arg "Server.new_round: server is down";
  let kp = Dh.keygen t.params t.rng in
  t.round_key <- Some kp;
  snd kp

let round_public t = Option.map snd t.round_key

(* Onions per curve batch, in the unwrap and the noise wrap: enough that
   a batch's comb for a downstream key costs a few multiplications per
   layer, few enough that memory stays flat whatever the noise count. *)
let chunk = 256

let ceil_div a b = (a + b - 1) / b

(* The traced variant carries an optional per-message trace context
   ALONGSIDE each onion — an OCaml value, never serialized — so a sampled
   message's hop can be recorded and its child context handed to the next
   server. Tracing draws no protocol randomness and adds no bytes: the
   onion processing, noise generation and shuffle consume exactly the same
   DRBG stream as the untraced path (byte-identity enforced by test). *)
let process_traced t ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes ~noise_body ?tracer
    batch =
  let sk =
    match t.round_key with
    | None -> invalid_arg "Server.process: no round key (call new_round)"
    | Some (sk, _) -> sk
  in
  Tel.Counter.add t.tel.c_in (Array.length batch);
  Tel.Histogram.observe t.tel.h_batch (float_of_int (Array.length batch));
  let t0 = Tel.now Tel.default in
  (* The onions are unwrapped a chunk at a time, one curve batch each. The
     unwrap draws no randomness, so the chunks fan out across the domain
     pool; order is preserved, and the randomness-consuming phases below
     (noise, shuffle) stay sequential, so every pool size produces the same
     output as the 1-domain path. *)
  let pool = Parallel.get () in
  if Parallel.size pool > 1 then Params.force_tables t.params;
  let onions = Array.map fst batch in
  let n = Array.length onions in
  let size = Int.max 1 (Int.min chunk (ceil_div n (Parallel.size pool))) in
  let inners =
    Array.init (ceil_div n size) (fun c ->
        Array.sub onions (c * size) (Int.min size (n - (c * size))))
    |> Parallel.map pool (Onion.unwrap_batch t.params ~sk)
    |> Array.to_list |> Array.concat
  in
  let unwrapped =
    Array.to_list (Array.mapi (fun i (_, ctx) -> (inners.(i), ctx)) batch)
    |> List.filter_map (fun (inner, ctx) -> Option.map (fun x -> (x, ctx)) inner)
  in
  let t_unwrapped = Tel.now Tel.default in
  Tel.Histogram.observe t.tel.h_unwrap (t_unwrapped -. t0);
  let dropped = Array.length batch - List.length unwrapped in
  Tel.Counter.add t.tel.c_dropped dropped;
  if dropped > 0 then
    Events.log Events.default ~severity:Warn
      ~labels:[ ("server", string_of_int t.pos) ]
      ~detail:(Printf.sprintf "%d onions failed to decrypt" dropped)
      "mix.decode_failure";
  let unwrapped =
    match tracer with
    | None -> unwrapped
    | Some tr ->
      List.map
        (fun (inner, ctx) ->
          match ctx with
          | None -> (inner, None)
          | Some c ->
            let hop = Trace.child tr c in
            Trace.emit tr hop
              ~labels:[ ("server", string_of_int t.pos) ]
              ~name:"mix.hop" ~ts:t0 ~dur:(t_unwrapped -. t0) ();
            (inner, Some hop))
        unwrapped
  in
  (* Noise for every real mailbox, wrapped for the rest of the chain so the
     next servers cannot distinguish it from client traffic. Each message's
     body and secrets are drawn in turn, and the drawn messages wrapped a
     chunk at a time: the wrap draws nothing, so the stream is the
     per-message loop's. *)
  let t1 = Tel.now Tel.default in
  let layers = List.length downstream_pks in
  let noise = ref [] and noise_count = ref 0 in
  let drawn = ref [] and ndrawn = ref 0 in
  let wrap_drawn () =
    Onion.wrap_batch t.params ~server_pks:downstream_pks (Array.of_list (List.rev !drawn))
    |> Array.iter (fun onion -> noise := (onion, None) :: !noise);
    drawn := [];
    ndrawn := 0
  in
  for mailbox = 0 to num_mailboxes - 1 do
    let n = Mailbox.noise_count t.rng ~mu:noise_mu ~b:laplace_b in
    noise_count := !noise_count + n;
    for _ = 1 to n do
      let payload = Payload.encode ~mailbox (noise_body ~mailbox) in
      drawn := (Onion.secrets t.params t.rng ~layers, payload) :: !drawn;
      incr ndrawn;
      if !ndrawn = chunk then wrap_drawn ()
    done
  done;
  wrap_drawn ();
  Tel.Histogram.observe t.tel.h_noise_gen (Tel.now Tel.default -. t1);
  Tel.Counter.add t.tel.c_noise !noise_count;
  let out = Array.of_list (List.rev_append !noise unwrapped) in
  Drbg.shuffle t.rng out;
  Tel.Counter.add t.tel.c_out (Array.length out);
  (out, !noise_count)

let process t ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes ~noise_body batch =
  let out, noise_count =
    process_traced t ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes ~noise_body
      (Array.map (fun onion -> (onion, None)) batch)
  in
  (Array.map fst out, noise_count)

let end_round t = t.round_key <- None
