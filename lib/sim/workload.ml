module Drbg = Alpenhorn_crypto.Drbg
module Mailbox = Alpenhorn_mixnet.Mailbox

type spec = {
  n_users : int;
  active_fraction : float;
  recipient_skew : float;
  noise_mu : float;
  laplace_b : float;
  chain_length : int;
}

let active_count spec =
  int_of_float (Float.round (float_of_int spec.n_users *. spec.active_fraction))

let num_mailboxes spec =
  (Mailbox.plan ~expected_real:(active_count spec) ~noise_mu:spec.noise_mu
     ~chain_length:spec.chain_length ~shards:0)
    .num_mailboxes

type mailbox_load = { real : int array; noise : int array }

let generate spec rng =
  let k = num_mailboxes spec in
  let real = Array.make k 0 and noise = Array.make k 0 in
  let actives = active_count spec in
  let assign_mailbox rank =
    Mailbox.mailbox_of_identity (Printf.sprintf "user-%d@sim" rank) ~num_mailboxes:k
  in
  let recipient =
    if spec.recipient_skew = 0.0 then fun () -> 1 + Drbg.int rng spec.n_users
    else
      let zipf = Zipf.create ~n:spec.n_users ~s:spec.recipient_skew in
      fun () -> Zipf.sample zipf rng
  in
  for _ = 1 to actives do
    let m = assign_mailbox (recipient ()) in
    real.(m) <- real.(m) + 1
  done;
  for m = 0 to k - 1 do
    for _ = 1 to spec.chain_length do
      noise.(m) <- noise.(m) + Mailbox.noise_count rng ~mu:spec.noise_mu ~b:spec.laplace_b
    done
  done;
  { real; noise }

let total load = Array.map2 ( + ) load.real load.noise
