module Drbg = Alpenhorn_crypto.Drbg
module Aead = Alpenhorn_crypto.Aead
module Params = Alpenhorn_pairing.Params
module Dh = Alpenhorn_dh.Dh

let zero_nonce = String.make 12 '\000'

let layer_overhead (params : Params.t) = Dh.public_size params + Aead.overhead

let secrets (params : Params.t) rng ~layers =
  List.init layers (fun _ -> Dh.random_secret params rng)

let wrap_batch (params : Params.t) ~server_pks msgs =
  let pks = Array.of_list (List.rev server_pks) in
  let layers = Array.length pks in
  let secrets =
    Array.map
      (fun (ss, _) ->
        let ss = Array.of_list ss in
        if Array.length ss <> layers then invalid_arg "Onion.wrap_batch: one secret per layer";
        ss)
      msgs
  in
  (* message i's layer j (innermost first) is box (i·layers + j) *)
  let boxes =
    Dh.exchange_batch params
      (Array.init
         (Array.length msgs * layers)
         (fun b -> (secrets.(b / layers).(b mod layers), pks.(b mod layers))))
  in
  Array.mapi
    (fun i (_, body) ->
      let onion = ref body in
      for j = 0 to layers - 1 do
        let epk, key = boxes.((i * layers) + j) in
        onion := Dh.public_bytes params epk ^ Aead.seal ~key ~nonce:zero_nonce !onion
      done;
      !onion)
    msgs

let wrap (params : Params.t) rng ~server_pks body =
  let secrets = secrets params rng ~layers:(List.length server_pks) in
  (wrap_batch params ~server_pks [| (secrets, body) |]).(0)

let unwrap_batch (params : Params.t) ~sk onions =
  let pklen = Dh.public_size params in
  let epks =
    Array.map
      (fun msg ->
        if String.length msg < pklen + Aead.overhead then None
        else Dh.public_of_bytes params (String.sub msg 0 pklen))
      onions
  in
  let keys =
    Dh.shared_secret_batch params sk (Array.of_seq (Seq.filter_map Fun.id (Array.to_seq epks)))
  in
  let next = ref 0 in
  Array.mapi
    (fun i epk ->
      Option.bind epk (fun _ ->
          let key = keys.(!next) and msg = onions.(i) in
          incr next;
          Aead.open_ ~key ~nonce:zero_nonce (String.sub msg pklen (String.length msg - pklen))))
    epks

let unwrap (params : Params.t) ~sk msg = (unwrap_batch params ~sk [| msg |]).(0)
