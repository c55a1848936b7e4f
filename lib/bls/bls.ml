module Bigint = Alpenhorn_bigint.Bigint
module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve
module Pairing = Alpenhorn_pairing.Pairing

type secret = Bigint.t
type public = Curve.point
type signature = Curve.point

let keygen (params : Params.t) rng =
  let s = Bigint.add Bigint.one (Drbg.bigint_below rng (Bigint.sub params.q Bigint.one)) in
  (s, Params.mul_g params s)

let public_of_secret (params : Params.t) s = Params.mul_g params s

let hash_msg (params : Params.t) msg = Pairing.hash_to_group params ("bls-msg" ^ msg)

let sign (params : Params.t) sk msg = Curve.mul params.fp sk (hash_msg params msg)

(* re-verifying the same attestation (same signer key, same round
   message) recurs across clients in a round: both pairings memoize *)
let verify (params : Params.t) pk msg sg =
  (not (Curve.is_infinity pk || Curve.is_infinity sg))
  && Pairing.gt_equal
       (Pairing.pair_cached params sg params.g)
       (Pairing.pair_cached params (hash_msg params msg) pk)

(* Small-exponent batch verification: with random scalars r_i, all of
   e(sg_i, g) = e(H(m_i), pk_i) hold iff (with probability 1 - 2^-63 over
   the r_i) e(Σ r_i·sg_i, g) · Π e(-r_i·H(m_i), pk_i) = 1.  The product of
   pairings shares one final exponentiation across the whole batch
   (Pairing.pair_product), so a batch of n costs ~n+1 Miller loops + 1
   final exponentiation instead of 2n of each.  The scalars are derived by
   a DRBG seeded from the entire batch (Fiat-Shamir style): no signature in
   the batch can be chosen as a function of its own scalar. *)
let verify_batch (params : Params.t) items =
  let fp = params.fp in
  match Array.length items with
  | 0 -> true
  | 1 ->
    let pk, msg, sg = items.(0) in
    verify params pk msg sg
  | _ ->
    let finite (pk, _, sg) = not (Curve.is_infinity pk || Curve.is_infinity sg) in
    Array.for_all finite items
    && begin
      let seed = Buffer.create 256 in
      Buffer.add_string seed "bls-batch";
      Array.iter
        (fun (pk, msg, sg) ->
          Buffer.add_string seed (Curve.to_bytes fp pk);
          Buffer.add_string seed (string_of_int (String.length msg));
          Buffer.add_char seed ':';
          Buffer.add_string seed msg;
          Buffer.add_string seed (Curve.to_bytes fp sg))
        items;
      let rng = Drbg.create ~seed:(Buffer.contents seed) in
      (* scalars must be nonzero and < q; q can be as small as 64 bits in
         the test parameter set, so clamp the bit-length below it *)
      let bits = min 64 (Bigint.numbits params.q - 1) in
      let scalars =
        Array.map
          (fun _ ->
            let r = Drbg.bigint_bits rng bits in
            if Bigint.is_zero r then Bigint.one else r)
          items
      in
      (* group the hash side by signer: e(A, pk)·e(B, pk) = e(A+B, pk), so
         signatures sharing a key (the dominant Alpenhorn shape — a small
         anytrust PKG set attesting many announcements) collapse to one
         pairing per distinct key. Each group's Σ r_i·H(m_i), and
         Σ r_i·sg_i, comes from one multi-scalar ladder, and all share one
         affine-conversion inversion (msm_batch). *)
      let order = ref [] (* distinct pks, first-seen order *) in
      let by_pk = Hashtbl.create (Array.length items) in
      Array.iteri
        (fun i (pk, msg, _) ->
          let key = Curve.to_bytes fp pk in
          let term = (scalars.(i), hash_msg params msg) in
          match Hashtbl.find_opt by_pk key with
          | Some terms -> terms := term :: !terms
          | None ->
            order := (key, pk) :: !order;
            Hashtbl.add by_pk key (ref [ term ]))
        items;
      let groups =
        (params.g, List.mapi (fun i (_, _, sg) -> (scalars.(i), sg)) (Array.to_list items))
        :: List.rev_map (fun (key, pk) -> (pk, !(Hashtbl.find by_pk key))) !order
      in
      (* e(−Σ r_i·sg_i, g)·Π e(Σ r_i·H(m_i), pk) = 1; a zero sum
         contributes e(O, ·) = 1 (e.g. signatures cancelling), so its
         factor is omitted *)
      let sums = Curve.msm_batch fp (List.map snd groups) in
      let sums = Curve.neg fp (List.hd sums) :: List.tl sums in
      let pairs =
        List.filter_map
          (fun ((pk, _), sum) -> if Curve.is_infinity sum then None else Some (sum, pk))
          (List.combine groups sums)
      in
      Pairing.gt_equal (Pairing.pair_product params pairs) (Pairing.gt_one params)
    end

let aggregate (params : Params.t) sigs = Curve.sum params.fp sigs
let aggregate_public = aggregate

let verify_multi (params : Params.t) pks msg sg = verify params (aggregate_public params pks) msg sg

let public_bytes (params : Params.t) pk = Curve.to_bytes params.fp pk
let public_of_bytes = Params.g1_of_bytes
let signature_bytes = public_bytes
let signature_of_bytes = public_of_bytes
