(* The format registry and its property check; see formats.mli. *)

module Codec = Alpenhorn_codec.Codec
module Drbg = Alpenhorn_crypto.Drbg
module Util = Alpenhorn_crypto.Util
module Bigint = Alpenhorn_bigint.Bigint
module Params = Alpenhorn_pairing.Params
module Curve = Alpenhorn_pairing.Curve
module Pkg = Alpenhorn_pkg.Pkg
module Bloom = Alpenhorn_bloom.Bloom
module Payload = Alpenhorn_mixnet.Payload
module Stream_writer = Alpenhorn_mixnet.Stream_writer
module Ratelimit = Alpenhorn_mixnet.Ratelimit
module Wire = Alpenhorn_core.Wire
module Persist = Alpenhorn_core.Persist
module Framing = Alpenhorn_net.Framing
module Proto = Alpenhorn_remote.Proto

type entry =
  | Entry : {
      name : string;
      encode : 'a -> string;
      decode : string -> 'a option;
      gen : Drbg.t -> 'a;
    }
      -> entry

let name (Entry e) = e.name
let of_codec name c gen = Entry { name; encode = Codec.encode c; decode = Codec.decode c; gen }

(* ---- value generators ---- *)

let g_str ?(max = 24) rng = Drbg.bytes rng (Drbg.int rng (max + 1))

(* small values, and values at the top of the u32 range *)
let g_u32 rng = if Drbg.int rng 4 = 0 then Codec.max_u32 - Drbg.int rng 3 else Drbg.int rng 100_000
let g_list ?(max = 4) g rng = List.init (Drbg.int rng (max + 1)) (fun _ -> g rng)
let g_float rng = Int64.float_of_bits (Drbg.int64 rng)
let g_chain rng = if Drbg.int rng 2 = 0 then Proto.Af else Proto.Dial
let g_point (p : Params.t) rng = Params.mul_g p (Drbg.bigint_below rng p.q)

(* for keys that may not be the point at infinity *)
let g_finite (p : Params.t) rng =
  Params.mul_g p (Bigint.add Bigint.one (Drbg.bigint_below rng (Bigint.sub p.q Bigint.one)))

let g_error rng =
  match Drbg.int rng 9 with
  | 0 -> Pkg.Unknown_account
  | 1 -> Pkg.Not_confirmed
  | 2 -> Pkg.Already_registered
  | 3 -> Pkg.Bad_token
  | 4 -> Pkg.Bad_signature
  | 5 -> Pkg.Locked_out (g_u32 rng)
  | 6 -> Pkg.Wrong_round
  | 7 -> Pkg.Not_revealed
  | _ -> Pkg.Unknown_provider

let g_frame rng =
  let tag = Drbg.int rng 255 in
  { Framing.tag = (if tag >= Framing.trace_tag then tag + 1 else tag); payload = g_str ~max:64 rng }

(* ---- the registry ---- *)

let rpc (rpc : (_, _) Proto.rpc) g_req g_resp =
  [
    of_codec (rpc.name ^ " request") rpc.req g_req;
    of_codec (rpc.name ^ " response") rpc.resp (fun rng ->
        if Drbg.int rng 4 = 0 then Error (g_error rng) else Ok (g_resp rng));
  ]

let proto p =
  let open Proto in
  let none _ = () and point = g_point p and finite = g_finite p in
  let batch rng = Array.of_list (g_list g_str rng) in
  List.concat
    [
      [ of_codec "Pkg.error" pkg_error g_error ];
      rpc (Op.pkg_info p) none point;
      rpc (Op.pkg_register p) (fun r -> (g_u32 r, g_str r, point r)) none;
      rpc Op.pkg_inbox g_str (g_list g_str);
      rpc Op.pkg_confirm (fun r -> (g_u32 r, g_str r, g_str r)) none;
      rpc Op.pkg_begin_round g_u32 g_str;
      rpc (Op.pkg_reveal p) g_u32 (fun r -> (point r, g_str r));
      rpc (Op.pkg_extract p) (fun r -> (g_u32 r, g_u32 r, g_str r, point r)) (fun r -> (point r, point r));
      rpc Op.pkg_end_round g_u32 none;
      rpc Op.mix_info none (fun r -> (g_u32 r, g_u32 r));
      rpc (Op.mix_new_round p) g_chain finite;
      rpc (Op.mix_process p)
        (fun r ->
          ( (g_chain r, g_list finite r, g_float r, g_float r),
            (g_u32 r, (if Drbg.int r 2 = 0 then None else Some (point r)), batch r) ))
        (fun r -> (g_u32 r, batch r));
      rpc Op.mix_end_round g_chain none;
      rpc Op.mix_ping none none;
    ]

let on_curve name =
  let p = Params.of_named name in
  let point = g_point p and finite = g_finite p in
  [
    Entry { name = "Curve.point " ^ name; encode = Curve.to_bytes p.fp; decode = Curve.of_bytes p.fp; gen = point };
    Entry
      {
        name = "Wire.request " ^ name;
        encode = Wire.encode_request p;
        decode = Wire.decode_request p;
        gen =
          (fun r ->
            {
              Wire.sender_email = g_str ~max:Wire.max_email_length r;
              sender_key = point r;
              sender_sig = point r;
              pkg_sigs = point r;
              dialing_key = finite r;
              dialing_round = g_u32 r;
            });
      };
    Entry
      {
        name = "Persist.plain " ^ name;
        encode =
          (fun (b : Persist.identity_backup) ->
            Persist.encode_plain p ~email:b.email ~signing_secret:b.signing_secret ~pinned:b.pinned);
        decode = Persist.decode_plain p;
        gen =
          (fun r ->
            {
              Persist.email = g_str r;
              signing_secret = Drbg.bigint_below r p.q;
              pinned = g_list (fun r -> (g_str r, finite r)) r;
            });
      };
    Entry
      {
        name = "Ratelimit.token " ^ name;
        encode = Ratelimit.token_bytes p;
        decode = Ratelimit.token_of_bytes p;
        gen = (fun r -> { Ratelimit.serial = Drbg.bytes r 16; signature = point r });
      };
  ]

let entries () =
  List.concat
    [
      [
        Entry { name = "Framing.frame"; encode = Framing.encode; decode = Framing.of_string; gen = g_frame };
        Entry
          {
            name = "Framing.traced";
            encode = (fun (labels, f) -> Framing.encode_traced ~trace:labels f);
            decode = (fun s -> Option.bind (Framing.of_string s) Framing.split_traced);
            gen = (fun r -> (g_list (fun r -> (g_str r, g_str r)) r, g_frame r));
          };
        Entry
          {
            name = "Payload";
            encode = (fun (mailbox, body) -> Payload.encode ~mailbox body);
            decode = Payload.decode;
            gen =
              (fun r ->
                ((if Drbg.int r 4 = 0 then Payload.cover else Drbg.int r (Payload.cover + 1)), g_str r));
          };
        Entry
          {
            name = "Bloom";
            encode = Bloom.to_bytes;
            decode = Bloom.of_bytes;
            gen =
              (fun r ->
                let f = Bloom.create_custom ~bits:(1 + Drbg.int r 200) ~hashes:(1 + Drbg.int r Bloom.max_hashes) in
                List.iter (Bloom.add f) (g_list ~max:8 (g_str ~max:32) r);
                f);
          };
      ];
      on_curve "test";
      on_curve "production";
      proto (Params.test ());
      [
        (* the blob an add-friend shard is published as: one record per
           payload; a blob decodes only when every byte of it parses *)
        Entry
          {
            name = "Stream_writer.records";
            encode =
              (fun records ->
                let buf = Buffer.create 256 in
                let w = Stream_writer.create (Stream_writer.buffer_sink buf) in
                List.iter (Stream_writer.write_record w) records;
                Stream_writer.flush w;
                Buffer.contents buf);
            decode =
              (fun s ->
                match Stream_writer.fold_records s (fun acc r -> r :: acc) [] with
                | records, true -> Some (List.rev records)
                | _, false -> None);
            gen =
              g_list ~max:6 (fun r -> Payload.encode ~mailbox:(Drbg.int r 64) (g_str ~max:40 r));
          };
      ];
    ]

(* ---- mutation ---- *)

let u32_values = [| 0; Codec.max_u32; Codec.max_u32 + 1; 0xffff_ffff |]

(* Overwrite a u32 with a boundary value. Offsets holding a value no
   larger than the bytes after them look like length or count fields and
   are preferred. *)
let tamper_u32 rng s =
  let n = String.length s in
  if n < 4 then s
  else begin
    let looks_like_length p = Int32.to_int (String.get_int32_be s p) land 0xffff_ffff <= n - p - 4 in
    let candidates = List.filter looks_like_length (List.init (n - 3) Fun.id) in
    let p =
      match candidates with
      | [] -> Drbg.int rng (n - 3)
      | l -> List.nth l (Drbg.int rng (List.length l))
    in
    let b = Bytes.of_string s in
    Bytes.set_int32_be b p (Int32.of_int u32_values.(Drbg.int rng (Array.length u32_values)));
    Bytes.to_string b
  end

let mutate rng s other =
  let n = String.length s in
  let edit f =
    let b = Bytes.of_string s in
    f b;
    Bytes.to_string b
  in
  match Drbg.int rng 6 with
  | 0 when n > 0 ->
    edit (fun b ->
        for _ = 0 to Drbg.int rng 3 do
          let i = Drbg.int rng n in
          Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl Drbg.int rng 8))
        done)
  | 1 when n > 0 ->
    (* a zero byte makes leading-zero and padding encodings *)
    edit (fun b -> Bytes.set_uint8 b (Drbg.int rng n) (if Drbg.int rng 2 = 0 then 0 else Drbg.byte rng))
  | 2 when n > 0 -> String.sub s 0 (Drbg.int rng n)
  | 3 -> tamper_u32 rng s
  | 4 -> s ^ Drbg.bytes rng (1 + Drbg.int rng 8)
  | _ ->
    let m = String.length other in
    let cut = Drbg.int rng (m + 1) in
    String.sub s 0 (Drbg.int rng (n + 1)) ^ String.sub other cut (m - cut)

(* ---- the check ---- *)

exception Violation of string

let check ~seed ~mutants (Entry e) =
  let rng = Drbg.create ~seed:(seed ^ "/" ^ e.name) in
  let decode what s =
    match e.decode s with
    | v -> v
    | exception ex ->
      raise (Violation (Printf.sprintf "%s raised %s on %s" what (Printexc.to_string ex) (Util.to_hex s)))
  in
  let canonical what s v =
    match e.encode v with
    | s' when s' = s -> ()
    | s' ->
      raise
        (Violation
           (Printf.sprintf "%s decodes but re-encodes differently: %s -> %s" what (Util.to_hex s)
              (Util.to_hex s')))
    | exception ex ->
      raise
        (Violation
           (Printf.sprintf "%s decodes to a value encode refuses (%s): %s" what (Printexc.to_string ex)
              (Util.to_hex s)))
  in
  match
    let pool = Array.init (2 + min 62 (mutants / 20)) (fun _ -> e.encode (e.gen rng)) in
    Array.iter
      (fun s ->
        match decode "a valid encoding" s with
        | Some v -> canonical "a valid encoding" s v
        | None -> raise (Violation ("a valid encoding does not decode: " ^ Util.to_hex s)))
      pool;
    for i = 0 to mutants - 1 do
      let pick () = pool.(Drbg.int rng (Array.length pool)) in
      let s = pick () in
      let m = mutate rng s (pick ()) in
      let what = Printf.sprintf "mutant %d" i in
      match decode what m with Some v -> canonical what m v | None -> ()
    done
  with
  | () -> Ok ()
  | exception Violation msg -> Error msg
