(* Length-prefixed binary framing for the Alpenhorn wire protocol
   (DESIGN.md §13). A frame is

     len:u32be  tag:u8  payload:(len-1 bytes)

   [len] counts the tag byte plus the payload, so the minimum legal value
   is 1. The decoder is total: every input either yields a frame, asks for
   more bytes, or is rejected as corrupt — nothing raises on attacker
   bytes. An explicit payload ceiling turns absurd length prefixes into
   [Corrupt] immediately instead of buffering toward them. *)

type frame = { tag : int; payload : string }

let default_max_payload = 8 * 1024 * 1024

let be32 v =
  String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff))

let read_be32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

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
   payload is the label list (string pairs, [Fields] codec) followed by
   the complete encoding of the inner frame. The inner bytes are exactly
   [encode inner] — so the protocol payload an RPC handler sees is
   byte-identical with tracing on or off, and [encode_traced ~trace:None]
   IS [encode] (enforced by test). Trace labels never enter protocol
   payloads; they live only in this RPC transport envelope between
   orchestrator and servers (never inside onions or mailbox entries). *)

let trace_tag = 0xfe

let encode_labels labels =
  let b = Buffer.create 64 in
  let u32 v =
    if v < 0 || v > 0x3fffffff then invalid_arg "Framing.encode_traced: label size";
    Buffer.add_string b (be32 v)
  in
  let str s =
    u32 (String.length s);
    Buffer.add_string b s
  in
  u32 (List.length labels);
  List.iter
    (fun (k, v) ->
      str k;
      str v)
    labels;
  Buffer.contents b

let encode_traced ?max_payload ?trace frame =
  match trace with
  | None -> encode ?max_payload frame
  | Some labels ->
    let inner = encode ?max_payload frame in
    encode ?max_payload { tag = trace_tag; payload = encode_labels labels ^ inner }

let split_traced ?max_payload (f : frame) =
  if f.tag <> trace_tag then None
  else begin
    let src = f.payload in
    let pos = ref 0 in
    let remaining () = String.length src - !pos in
    let get_u32 () =
      if remaining () < 4 then None
      else begin
        let v = read_be32 src !pos in
        pos := !pos + 4;
        if v < 0 then None else Some v
      end
    in
    let get_str () =
      match get_u32 () with
      | None -> None
      | Some n ->
        if n > remaining () then None
        else begin
          let v = String.sub src !pos n in
          pos := !pos + n;
          Some v
        end
    in
    match get_u32 () with
    | None -> None
    | Some n ->
      (* bound the pair count by the bytes present: each pair costs at
         least its two 4-byte length prefixes *)
      if n > remaining () / 8 then None
      else begin
        let rec pairs i acc =
          if i = 0 then Some (List.rev acc)
          else
            match get_str () with
            | None -> None
            | Some k -> (
              match get_str () with
              | None -> None
              | Some v -> pairs (i - 1) ((k, v) :: acc))
        in
        match pairs n [] with
        | None -> None
        | Some labels -> (
          match of_string ?max_payload (String.sub src !pos (remaining ())) with
          | None -> None
          | Some inner -> if inner.tag = trace_tag then None else Some (labels, inner))
      end
  end

(* ---- field codec for frame payloads ----

   The same cursor style as the rest of the tree (Persist): a writer over
   [Buffer.t] and a total option-returning reader. Integers are u32be,
   floats ride as their IEEE-754 bits, strings and lists are
   length-prefixed. *)

module Fields = struct
  let u8 b v =
    if v < 0 || v > 0xff then invalid_arg "Fields.u8";
    Buffer.add_char b (Char.chr v)

  let u32 b v =
    if v < 0 || v > 0x3fffffff then invalid_arg "Fields.u32";
    Buffer.add_string b (be32 v)

  let f64 b v =
    let bits = Int64.bits_of_float v in
    for i = 7 downto 0 do
      Buffer.add_char b (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xffL)))
    done

  let str b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let strs b l =
    u32 b (List.length l);
    List.iter (str b) l

  type cursor = { src : string; mutable pos : int }

  let cursor src = { src; pos = 0 }
  let finished c = c.pos = String.length c.src

  let get_u8 c =
    if c.pos + 1 > String.length c.src then None
    else begin
      let v = Char.code c.src.[c.pos] in
      c.pos <- c.pos + 1;
      Some v
    end

  let get_u32 c =
    if c.pos + 4 > String.length c.src then None
    else begin
      let v = read_be32 c.src c.pos in
      c.pos <- c.pos + 4;
      if v < 0 then None else Some v
    end

  let get_f64 c =
    if c.pos + 8 > String.length c.src then None
    else begin
      let bits = ref 0L in
      for i = 0 to 7 do
        bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (Char.code c.src.[c.pos + i]))
      done;
      c.pos <- c.pos + 8;
      Some (Int64.float_of_bits !bits)
    end

  let get_str c =
    match get_u32 c with
    | None -> None
    | Some n ->
      if c.pos + n > String.length c.src then None
      else begin
        let v = String.sub c.src c.pos n in
        c.pos <- c.pos + n;
        Some v
      end

  let get_strs c =
    match get_u32 c with
    | None -> None
    | Some n ->
      let rec go i acc =
        if i = 0 then Some (List.rev acc)
        else match get_str c with None -> None | Some s -> go (i - 1) (s :: acc)
      in
      (* bound list headers by the bytes actually present: each element
         costs at least its 4-byte length prefix *)
      if n > (String.length c.src - c.pos) / 4 then None else go n []
end
