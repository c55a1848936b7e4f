(* Length-prefixed binary framing for the Alpenhorn wire protocol
   (DESIGN.md §13). A frame is

     len:u32be  tag:u8  payload:(len-1 bytes)

   [len] counts the tag byte plus the payload, so the minimum legal value
   is 1. The decoder is total: every input either yields a frame, asks for
   more bytes, or is rejected as corrupt — nothing raises on attacker
   bytes. An explicit payload ceiling turns absurd length prefixes into
   [Corrupt] immediately instead of buffering toward them. *)

module Codec = Alpenhorn_codec.Codec

type frame = { tag : int; payload : string }

let default_max_payload = 8 * 1024 * 1024

let encode ?(max_payload = default_max_payload) { tag; payload } =
  if tag < 0 || tag > 0xff then invalid_arg "Framing.encode: tag out of range";
  if String.length payload > max_payload then invalid_arg "Framing.encode: payload too large";
  let n = String.length payload in
  let b = Bytes.create (5 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int (1 + n));
  Bytes.set_uint8 b 4 tag;
  Bytes.blit_string payload 0 b 5 n;
  Bytes.unsafe_to_string b

type decode_result =
  | Frame of frame * int
  | Need_more
  | Corrupt of string

(* One decoder over any byte source of [length] bytes read through [byte]
   and [sub], so a string and a receive buffer decode alike. *)
let decode_with ~max_payload ~length ~byte ~sub ~pos =
  if pos < 0 || pos > length then Corrupt "bad offset"
  else if length - pos < 4 then Need_more
  else begin
    let len =
      (byte pos lsl 24) lor (byte (pos + 1) lsl 16) lor (byte (pos + 2) lsl 8) lor byte (pos + 3)
    in
    if len < 1 then Corrupt "frame length 0"
    else if len - 1 > max_payload then
      Corrupt (Printf.sprintf "frame of %d bytes exceeds the %d-byte bound" (len - 1) max_payload)
    else if length - pos - 4 < len then Need_more
    else Frame ({ tag = byte (pos + 4); payload = sub (pos + 5) (len - 1) }, pos + 4 + len)
  end

let decode ?(max_payload = default_max_payload) s ~pos =
  decode_with ~max_payload ~length:(String.length s)
    ~byte:(fun i -> Char.code s.[i])
    ~sub:(String.sub s) ~pos

let decode_buffer ?(max_payload = default_max_payload) b ~pos =
  decode_with ~max_payload ~length:(Buffer.length b)
    ~byte:(fun i -> Char.code (Buffer.nth b i))
    ~sub:(Buffer.sub b) ~pos

(* Total single-frame decoder: exactly one frame, nothing before or after. *)
let of_string ?max_payload s =
  match decode ?max_payload s ~pos:0 with
  | Frame (f, stop) when stop = String.length s -> Some f
  | Frame _ | Need_more | Corrupt _ -> None

(* ---- trace envelope (DESIGN.md §14) ----

   Cross-process trace propagation rides as a reserved wrapper tag, not a
   payload suffix: a suffix inside the frame length would be ambiguous
   against protocol bytes that happen to end in the trailer magic. A
   traced frame is one ordinary frame whose tag is [trace_tag] and whose
   payload is the label list (string pairs, [envelope] codec) followed by
   the complete encoding of the inner frame. The inner bytes are exactly
   [encode inner] — so the protocol payload an RPC handler sees is
   byte-identical with tracing on or off, and [encode_traced ~trace:None]
   IS [encode] (enforced by test). Trace labels never enter protocol
   payloads; they live only in this RPC transport envelope between
   orchestrator and servers (never inside onions or mailbox entries). *)

let trace_tag = 0xfe

let envelope = Codec.(pair (list (pair str str)) rest)

let encode_traced ?max_payload ?trace frame =
  match trace with
  | None -> encode ?max_payload frame
  | Some labels ->
    let inner = encode ?max_payload frame in
    encode ?max_payload { tag = trace_tag; payload = Codec.encode envelope (labels, inner) }

let split_traced ?max_payload (f : frame) =
  if f.tag <> trace_tag then None
  else
    match Codec.decode envelope f.payload with
    | None -> None
    | Some (labels, inner) -> (
      match of_string ?max_payload inner with
      | Some inner when inner.tag <> trace_tag -> Some (labels, inner)
      | Some _ | None -> None)
