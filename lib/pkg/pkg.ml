module Drbg = Alpenhorn_crypto.Drbg
module Sha256 = Alpenhorn_crypto.Sha256
module Util = Alpenhorn_crypto.Util
module Params = Alpenhorn_pairing.Params
module Ibe = Alpenhorn_ibe.Ibe
module Bls = Alpenhorn_bls.Bls
module Tel = Alpenhorn_telemetry.Telemetry
module Pairing = Alpenhorn_pairing.Pairing
module Parallel = Alpenhorn_parallel.Parallel

(* Shared across all PKG instances: the paper's trust model makes the PKGs
   symmetric, so aggregated counts are what the evaluation reads. *)
let m_extractions = Tel.Counter.v Tel.default "pkg.extractions"
let m_extract_errors = Tel.Counter.v Tel.default "pkg.extract_errors"
let m_verifications = Tel.Counter.v Tel.default "pkg.verifications"
let m_registrations = Tel.Counter.v Tel.default "pkg.registrations"
let m_extract_seconds = Tel.Histogram.v Tel.default "pkg.extract_seconds"
let m_extract_batch_seconds = Tel.Histogram.v Tel.default "pkg.extract_batch_seconds"

type error =
  | Unknown_account
  | Not_confirmed
  | Already_registered
  | Bad_token
  | Bad_signature
  | Locked_out of int
  | Wrong_round
  | Not_revealed
  | Unknown_provider

let error_to_string = function
  | Unknown_account -> "unknown account"
  | Not_confirmed -> "account not confirmed"
  | Already_registered -> "already registered"
  | Bad_token -> "bad confirmation token"
  | Bad_signature -> "bad signature"
  | Locked_out s -> Printf.sprintf "locked out for %d more seconds" s
  | Wrong_round -> "wrong round"
  | Not_revealed -> "round key not revealed"
  | Unknown_provider -> "untrusted email provider"

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

(* 30 days, in seconds *)
let default_lockout = 30 * 24 * 3600

type account_state =
  | Pending of { pk : Bls.public; token : string }
  | Active of { pk : Bls.public; mutable last_seen : int }
  | Lockout of { until : int }

type round_state = {
  msk : Ibe.master_secret option ref; (* None once erased *)
  mpk : Ibe.master_public;
  opening : string;
  mutable revealed : bool;
}

type t = {
  params : Params.t;
  rng : Drbg.t;
  lockout : int;
  send_email : to_:string -> token:string -> unit;
  sk : Bls.secret;
  pk : Bls.public;
  accounts : (string, account_state) Hashtbl.t;
  rounds : (int, round_state) Hashtbl.t;
  providers : (string, Bls.public) Hashtbl.t; (* DKIM keys by email domain *)
}

let create params ~rng ?(lockout = default_lockout) ~send_email () =
  let sk, pk = Bls.keygen params (Drbg.derive rng "pkg-longterm") in
  {
    params;
    rng;
    lockout;
    send_email;
    sk;
    pk;
    accounts = Hashtbl.create 1024;
    rounds = Hashtbl.create 16;
    providers = Hashtbl.create 8;
  }

let long_term_public t = t.pk

(* ---- registration ---- *)

let register t ~now ~email ~pk =
  let start_pending () =
    let token = Util.to_hex (Drbg.bytes t.rng 16) in
    Hashtbl.replace t.accounts email (Pending { pk; token });
    t.send_email ~to_:email ~token;
    Ok ()
  in
  match Hashtbl.find_opt t.accounts email with
  | None -> start_pending ()
  | Some (Pending _) -> start_pending () (* restart with a fresh token *)
  | Some (Active a) ->
    (* 30-day liveness rule: a stale account can be re-registered (§4.6) *)
    if now - a.last_seen > t.lockout then start_pending () else Error Already_registered
  | Some (Lockout l) -> if now >= l.until then start_pending () else Error (Locked_out (l.until - now))

let trust_provider t ~domain ~key = Hashtbl.replace t.providers domain key

let dkim_message ~email ~pk_bytes = "dkim-register" ^ Util.be32 (String.length email) ^ email ^ pk_bytes

let domain_of email =
  match String.index_opt email '@' with
  | Some i when i < String.length email - 1 -> Some (String.sub email (i + 1) (String.length email - i - 1))
  | Some _ | None -> None

(* Same admission rules as [register], but authenticated by the provider's
   DKIM signature instead of a confirmation-token round trip. *)
let register_dkim t ~now ~email ~pk ~signature =
  let admissible =
    match Hashtbl.find_opt t.accounts email with
    | None | Some (Pending _) -> Ok ()
    | Some (Active a) -> if now - a.last_seen > t.lockout then Ok () else Error Already_registered
    | Some (Lockout l) -> if now >= l.until then Ok () else Error (Locked_out (l.until - now))
  in
  match admissible with
  | Error e -> Error e
  | Ok () -> begin
    match Option.bind (domain_of email) (fun d -> Hashtbl.find_opt t.providers d) with
    | None -> Error Unknown_provider
    | Some provider_key ->
      let msg = dkim_message ~email ~pk_bytes:(Bls.public_bytes t.params pk) in
      Tel.Counter.inc m_verifications;
      if Bls.verify t.params provider_key msg signature then begin
        Hashtbl.replace t.accounts email (Active { pk; last_seen = now });
        Tel.Counter.inc m_registrations;
        Ok ()
      end
      else Error Bad_signature
  end

let confirm t ~now ~email ~token =
  match Hashtbl.find_opt t.accounts email with
  | None -> Error Unknown_account
  | Some (Active _) -> Error Already_registered
  | Some (Lockout l) -> Error (Locked_out (Stdlib.max 0 (l.until - now)))
  | Some (Pending p) ->
    if Util.const_time_eq p.token token then begin
      Hashtbl.replace t.accounts email (Active { pk = p.pk; last_seen = now });
      Tel.Counter.inc m_registrations;
      Ok ()
    end
    else Error Bad_token

let deregister t ~now ~email ~signature =
  match Hashtbl.find_opt t.accounts email with
  | None | Some (Pending _) -> Error Unknown_account
  | Some (Lockout l) -> Error (Locked_out (Stdlib.max 0 (l.until - now)))
  | Some (Active a) ->
    Tel.Counter.inc m_verifications;
    if Bls.verify t.params a.pk ("deregister" ^ email) signature then begin
      Hashtbl.replace t.accounts email (Lockout { until = now + t.lockout });
      Ok ()
    end
    else Error Bad_signature

let is_registered t ~email =
  match Hashtbl.find_opt t.accounts email with Some (Active _) -> true | _ -> false

let registered_key t ~email =
  match Hashtbl.find_opt t.accounts email with Some (Active a) -> Some a.pk | _ -> None

(* ---- rounds ---- *)

let commitment_of t ~mpk ~opening =
  Sha256.digest ("pkg-commit" ^ Ibe.master_public_bytes t.params mpk ^ opening)

let begin_round t ~round =
  let msk, mpk = Ibe.setup t.params (Drbg.derive t.rng (Printf.sprintf "pkg-round-%d" round)) in
  let opening = Drbg.bytes t.rng 32 in
  Hashtbl.replace t.rounds round { msk = ref (Some msk); mpk; opening; revealed = false };
  commitment_of t ~mpk ~opening

let reveal_round t ~round =
  match Hashtbl.find_opt t.rounds round with
  | None -> Error Wrong_round
  | Some rs ->
    rs.revealed <- true;
    Ok (rs.mpk, rs.opening)

let verify_commitment params ~commitment ~mpk ~opening =
  Util.const_time_eq commitment
    (Sha256.digest ("pkg-commit" ^ Ibe.master_public_bytes params mpk ^ opening))

let end_round t ~round =
  match Hashtbl.find_opt t.rounds round with
  | None -> ()
  | Some rs -> rs.msk := None

let master_public t ~round =
  match Hashtbl.find_opt t.rounds round with
  | Some rs when rs.revealed -> Some rs.mpk
  | Some _ | None -> None

(* ---- extraction ---- *)

let extraction_request_message ~email ~round = "extract" ^ Util.be32 round ^ email

let attestation_message ~email ~pk_bytes ~round = "attest" ^ Util.be32 round ^ Util.be32 (String.length email) ^ email ^ pk_bytes

let extract_inner t ~now ~round ~email ~signature =
  match Hashtbl.find_opt t.accounts email with
  | None | Some (Lockout _) -> Error Unknown_account
  | Some (Pending _) -> Error Not_confirmed
  | Some (Active a) ->
    Tel.Counter.inc m_verifications;
    if not (Bls.verify t.params a.pk (extraction_request_message ~email ~round) signature) then
      Error Bad_signature
    else begin
      match Hashtbl.find_opt t.rounds round with
      | None -> Error Wrong_round
      | Some rs ->
        if not rs.revealed then Error Not_revealed
        else begin
          match !(rs.msk) with
          | None -> Error Wrong_round (* master secret already erased *)
          | Some msk ->
            a.last_seen <- now;
            let d_id = Ibe.extract t.params msk email in
            let pk_bytes = Bls.public_bytes t.params a.pk in
            let att = Bls.sign t.params t.sk (attestation_message ~email ~pk_bytes ~round) in
            Ok (d_id, att)
        end
    end

let extract t ~now ~round ~email ~signature =
  let t0 = Tel.now Tel.default in
  let result = extract_inner t ~now ~round ~email ~signature in
  Tel.Histogram.observe m_extract_seconds (Tel.now Tel.default -. t0);
  (match result with
  | Ok _ -> Tel.Counter.inc m_extractions
  | Error _ -> Tel.Counter.inc m_extract_errors);
  result

(* Batched extraction across the domain pool.  Safe to parallelize: each
   request reads the accounts/rounds tables (not resized during a round —
   registration and round setup happen between rounds) and the only write,
   [a.last_seen <- now], stores the same [now] for a given account however
   many domains race on it.  Nothing here draws from [t.rng], so results —
   and the DRBG stream — are identical to a sequential [extract] loop. *)
let extract_batch t ~now ~round requests =
  let t0 = Tel.now Tel.default in
  let pool = Parallel.get () in
  if Parallel.size pool > 1 then Pairing.warmup t.params;
  let results =
    Parallel.map pool
      (fun (email, signature) -> extract_inner t ~now ~round ~email ~signature)
      requests
  in
  Tel.Histogram.observe m_extract_batch_seconds (Tel.now Tel.default -. t0);
  Array.iter
    (function
      | Ok _ -> Tel.Counter.inc m_extractions
      | Error _ -> Tel.Counter.inc m_extract_errors)
    results;
  results
