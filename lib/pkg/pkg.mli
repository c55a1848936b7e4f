(** A private-key generator server (paper §4.6, §9).

    Each PKG independently: registers email addresses (confirmation-token
    flow through the user's email provider), locks each address to a
    long-term signing key, rotates an IBE master keypair every add-friend
    round (commit-then-reveal, Appendix A), extracts identity private keys
    for authenticated users, attests to (email, long-term key, round)
    bindings with a BLS signature, and erases master secrets when the round
    ends.

    Trust: Alpenhorn needs just one of the N PKGs to be honest. Nothing in
    this module coordinates between PKGs — each instance is fully
    independent, as deployment requires.

    Time is an explicit [now] parameter (seconds), so the simulator controls
    the clock; the 30-day lockout policy (§4.6) falls out of ordinary unit
    tests. *)

module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Ibe = Alpenhorn_ibe.Ibe
module Bls = Alpenhorn_bls.Bls

type t

type error =
  | Unknown_account
  | Not_confirmed
  | Already_registered
  | Bad_token
  | Bad_signature
  | Locked_out of int  (** seconds until re-registration opens *)
  | Wrong_round
  | Not_revealed
  | Unknown_provider  (** DKIM registration from an untrusted email domain *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val create :
  Params.t ->
  rng:Drbg.t ->
  ?lockout:int ->
  send_email:(to_:string -> token:string -> unit) ->
  unit ->
  t
(** [lockout] defaults to 30 days, in seconds. *)

val long_term_public : t -> Bls.public
(** The PKG's signing key, assumed pre-distributed to all clients (§3.3). *)

(** {1 Account registration (§4.6)} *)

val register : t -> now:int -> email:string -> pk:Bls.public -> (unit, error) result
(** Start registration: a confirmation token is sent via [send_email].
    Fails with [Already_registered] if the address is locked to a key and
    the lockout window has not expired; re-registration after lockout and
    re-confirmation of a pending registration are allowed. *)

val confirm : t -> now:int -> email:string -> token:string -> (unit, error) result

val trust_provider : t -> domain:string -> key:Bls.public -> unit
(** Pin an email provider's DKIM signing key for [domain]. Like the PKG
    keys themselves (§3.3), provider keys ship out of band. *)

val dkim_message : email:string -> pk_bytes:string -> string
(** The bytes a provider signs to attest "this mailbox sent this key". *)

val register_dkim :
  t -> now:int -> email:string -> pk:Bls.public -> signature:Bls.signature -> (unit, error) result
(** One-shot registration via a DKIM-signed email (§4.6 footnote 4): the
    user sends a single message signed by their provider, and every PKG
    verifies it independently — no per-PKG confirmation round trips. Same
    lockout rules as {!register}; the account becomes active immediately. *)

val deregister : t -> now:int -> email:string -> signature:Bls.signature -> (unit, error) result
(** Signed with the account's long-term key ("deregister" ‖ email). Puts
    the address into a fresh lockout window (§9: prevents an adversary who
    compromised the email account from instantly re-registering). *)

val is_registered : t -> email:string -> bool
val registered_key : t -> email:string -> Bls.public option

(** {1 Round lifecycle (§4.4 + Appendix A)} *)

val begin_round : t -> round:int -> string
(** Generate the round's IBE master keypair and return a binding
    {e commitment} to the master public key. *)

val reveal_round : t -> round:int -> (Ibe.master_public * string, error) result
(** Reveal the master public key and the commitment opening. Clients check
    [commitment = H(mpk ‖ opening)]. *)

val verify_commitment : Params.t -> commitment:string -> mpk:Ibe.master_public -> opening:string -> bool

val end_round : t -> round:int -> unit
(** Erase the round's master secret (forward secrecy, §4.4). *)

val master_public : t -> round:int -> Ibe.master_public option

(** {1 Key extraction (Algorithm 1, step 1)} *)

val extraction_request_message : email:string -> round:int -> string
(** What the user signs to authenticate an extraction request. *)

val attestation_message : email:string -> pk_bytes:string -> round:int -> string
(** What each PKG signs to attest the (email, key, round) binding; clients
    verify the sum of these signatures against the sum of PKG keys
    (PKGSigs, §4.5). *)

val extract :
  t ->
  now:int ->
  round:int ->
  email:string ->
  signature:Bls.signature ->
  (Ibe.identity_key * Bls.signature, error) result
(** Returns the identity private key for this round and the PKG's
    attestation signature. Refreshes the account's liveness timestamp
    (the 30-day lockout clock, §4.6). *)

val extract_batch :
  t ->
  now:int ->
  round:int ->
  (string * Bls.signature) array ->
  (Ibe.identity_key * Bls.signature, error) result array
(** [extract] for a whole round's worth of [(email, signature)] requests at
    once, fanned out across the domain pool (result order matches request
    order). Semantically identical to mapping {!extract} — extraction draws
    no randomness — but the per-request verify/extract/sign work runs on
    every available domain. Batch duration lands on the
    ["pkg.extract_batch_seconds"] histogram. *)
