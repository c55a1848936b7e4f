module Drbg = Alpenhorn_crypto.Drbg
module Codec = Alpenhorn_codec.Codec
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve
module Bls = Alpenhorn_bls.Bls
module Blind = Alpenhorn_bls.Blind
module Events = Alpenhorn_telemetry.Events

type issuer = {
  params : Params.t;
  sk : Bls.secret;
  pk : Bls.public;
  quota : int;
  issued : (string * int, int) Hashtbl.t; (* (user, day) -> count *)
}

let create_issuer params ~rng ~quota_per_day =
  if quota_per_day < 1 then invalid_arg "Ratelimit.create_issuer: quota";
  let sk, pk = Bls.keygen params rng in
  { params; sk; pk; quota = quota_per_day; issued = Hashtbl.create 256 }

let issuer_public t = t.pk

let issue t ~now ~user blinded =
  let day = now / 86_400 in
  let used = Option.value ~default:0 (Hashtbl.find_opt t.issued (user, day)) in
  if used >= t.quota then begin
    Events.log Events.default ~severity:Warn
      ~labels:[ ("user", user) ]
      ~detail:(Printf.sprintf "quota %d reached on day %d" t.quota day)
      "ratelimit.quota_exhausted";
    Error `Quota_exhausted
  end
  else begin
    Hashtbl.replace t.issued (user, day) (used + 1);
    Ok (Blind.sign_blinded t.params t.sk blinded)
  end

type token = { serial : string; signature : Bls.signature }

let serial_size = 16

let fresh_serial rng = Drbg.bytes rng serial_size

let token =
  Params.derived @@ fun (params : Params.t) ->
  Codec.(
    map
      (fun (serial, signature) -> Some { serial; signature })
      (fun t -> (t.serial, t.signature))
      (pair (fixed serial_size)
         (map (Bls.signature_of_bytes params) (Bls.signature_bytes params)
            (fixed (Curve.point_bytes params.fp)))))

let token_size params = Option.get (Codec.size (token params))
let token_bytes params t = Codec.encode (token params) t
let token_of_bytes params s = Codec.decode (token params) s

type gate = {
  gparams : Params.t;
  issuer_key : Bls.public;
  seen : (string, unit) Hashtbl.t;
  (* serials admitted since [begin_round]: the rollback journal. [None]
     outside any round scope — admissions are then immediately final. *)
  mutable journal : string list option;
}

let create_gate params ~issuer_key =
  { gparams = params; issuer_key; seen = Hashtbl.create 4096; journal = None }

let admit g t =
  if Hashtbl.mem g.seen t.serial then begin
    Events.log Events.default ~severity:Warn "ratelimit.double_spend";
    Error `Double_spend
  end
  else if not (Blind.verify g.gparams g.issuer_key ~msg:t.serial t.signature) then
    Error `Bad_signature
  else begin
    Hashtbl.replace g.seen t.serial ();
    (match g.journal with Some j -> g.journal <- Some (t.serial :: j) | None -> ());
    Ok ()
  end

let begin_round g =
  match g.journal with
  | Some _ -> invalid_arg "Ratelimit.begin_round: round already open"
  | None -> g.journal <- Some []

let commit_round g =
  match g.journal with
  | None -> invalid_arg "Ratelimit.commit_round: no open round"
  | Some _ -> g.journal <- None

let rollback_round g =
  match g.journal with
  | None -> invalid_arg "Ratelimit.rollback_round: no open round"
  | Some serials ->
    List.iter (Hashtbl.remove g.seen) serials;
    g.journal <- None;
    Events.log Events.default ~severity:Warn
      ~detail:(Printf.sprintf "%d admitted tokens un-spent after round abort" (List.length serials))
      "ratelimit.rollback";
    List.length serials

let spent_count g = Hashtbl.length g.seen
