(* Binary codecs (DESIGN.md §13). A codec knows the size of a value's
   encoding, so [encode] fills one exactly-sized buffer; a reader raises
   the private [Malformed] on bad input, which only [decode] catches. *)

exception Malformed

type cursor = { src : string; mutable pos : int }

type 'a t = {
  size_of : 'a -> int;
  write : Bytes.t -> int -> 'a -> int; (* returns the offset after the value *)
  read : cursor -> 'a;
  min_size : int; (* the fewest bytes any encoding takes *)
  fixed : int option;
}

let encode c v =
  let b = Bytes.create (c.size_of v) in
  ignore (c.write b 0 v);
  Bytes.unsafe_to_string b

let decode c s =
  let cur = { src = s; pos = 0 } in
  match c.read cur with
  | v -> if cur.pos = String.length s then Some v else None
  | exception Malformed -> None

let size c = c.fixed

(* Claim [n] bytes at the cursor; returns where they start. *)
let take cur n =
  let p = cur.pos in
  if n > String.length cur.src - p then raise Malformed;
  cur.pos <- p + n;
  p

let fixed_codec n ~write ~read =
  { size_of = (fun _ -> n); write; read; min_size = n; fixed = Some n }

let unit = fixed_codec 0 ~write:(fun _ off () -> off) ~read:(fun _ -> ())

let u8 =
  fixed_codec 1
    ~write:(fun b off v ->
      if v < 0 || v > 0xff then invalid_arg "Codec.u8";
      Bytes.set_uint8 b off v;
      off + 1)
    ~read:(fun cur -> String.get_uint8 cur.src (take cur 1))

let max_u32 = 0x3fff_ffff

let u32 =
  fixed_codec 4
    ~write:(fun b off v ->
      if v < 0 || v > max_u32 then invalid_arg "Codec.u32";
      Bytes.set_int32_be b off (Int32.of_int v);
      off + 4)
    ~read:(fun cur ->
      let v = Int32.to_int (String.get_int32_be cur.src (take cur 4)) in
      if v < 0 || v > max_u32 then raise Malformed;
      v)

let f64 =
  fixed_codec 8
    ~write:(fun b off v ->
      Bytes.set_int64_be b off (Int64.bits_of_float v);
      off + 8)
    ~read:(fun cur -> Int64.float_of_bits (String.get_int64_be cur.src (take cur 8)))

let blit s b off =
  let n = String.length s in
  Bytes.blit_string s 0 b off n;
  off + n

let fixed n =
  if n < 0 then invalid_arg "Codec.fixed";
  fixed_codec n
    ~write:(fun b off s ->
      if String.length s <> n then invalid_arg "Codec.fixed";
      blit s b off)
    ~read:(fun cur -> String.sub cur.src (take cur n) n)

let rest =
  {
    size_of = String.length;
    write = (fun b off s -> blit s b off);
    read =
      (fun cur ->
        let n = String.length cur.src - cur.pos in
        String.sub cur.src (take cur n) n);
    min_size = 0;
    fixed = None;
  }

let str =
  {
    size_of = (fun s -> 4 + String.length s);
    write = (fun b off s -> blit s b (u32.write b off (String.length s)));
    read =
      (fun cur ->
        let n = u32.read cur in
        String.sub cur.src (take cur n) n);
    min_size = 4;
    fixed = None;
  }

let padded n =
  if n < 0 || n > 0xff then invalid_arg "Codec.padded";
  fixed_codec (1 + n)
    ~write:(fun b off s ->
      let len = String.length s in
      if len > n then invalid_arg "Codec.padded";
      Bytes.set_uint8 b off len;
      Bytes.fill b (blit s b (off + 1)) (n - len) '\000';
      off + 1 + n)
    ~read:(fun cur ->
      let p = take cur (1 + n) in
      let len = String.get_uint8 cur.src p in
      if len > n then raise Malformed;
      for i = p + 1 + len to p + n do
        if cur.src.[i] <> '\000' then raise Malformed
      done;
      String.sub cur.src (p + 1) len)

(* A count no larger than the elements the remaining bytes can hold. *)
let read_count c cur =
  let n = u32.read cur in
  if n > (String.length cur.src - cur.pos) / max 1 c.min_size then raise Malformed;
  n

let array c =
  {
    size_of =
      (fun a ->
        match c.fixed with
        | Some k -> 4 + (k * Array.length a)
        | None -> Array.fold_left (fun n x -> n + c.size_of x) 4 a);
    write = (fun b off a -> Array.fold_left (fun off x -> c.write b off x) (u32.write b off (Array.length a)) a);
    read =
      (fun cur ->
        match read_count c cur with
        | 0 -> [||]
        | n ->
          let a = Array.make n (c.read cur) in
          for i = 1 to n - 1 do
            a.(i) <- c.read cur
          done;
          a);
    min_size = 4;
    fixed = None;
  }

(* a fixed-size format never projects a value just to size it *)
let map inj proj c =
  {
    size_of = (match c.fixed with Some n -> fun _ -> n | None -> fun v -> c.size_of (proj v));
    write = (fun b off v -> c.write b off (proj v));
    read = (fun cur -> match inj (c.read cur) with Some v -> v | None -> raise Malformed);
    min_size = c.min_size;
    fixed = c.fixed;
  }

let list c = map (fun a -> Some (Array.to_list a)) Array.of_list (array c)

let sum_fixed sizes =
  List.fold_left
    (fun acc s -> match (acc, s) with Some a, Some s -> Some (a + s) | _ -> None)
    (Some 0) sizes

let pair a b =
  {
    size_of = (fun (x, y) -> a.size_of x + b.size_of y);
    write = (fun buf off (x, y) -> b.write buf (a.write buf off x) y);
    read =
      (fun cur ->
        let x = a.read cur in
        (x, b.read cur));
    min_size = a.min_size + b.min_size;
    fixed = sum_fixed [ a.fixed; b.fixed ];
  }

let tup3 a b c =
  map (fun (x, (y, z)) -> Some (x, y, z)) (fun (x, y, z) -> (x, (y, z))) (pair a (pair b c))

let tup4 a b c d =
  map
    (fun ((w, x), (y, z)) -> Some (w, x, y, z))
    (fun (w, x, y, z) -> ((w, x), (y, z)))
    (pair (pair a b) (pair c d))

type 'a case = Case : int * 'b t * ('b -> 'a) * ('a -> 'b option) -> 'a case

let case tag c inj proj =
  if tag < 0 || tag > 0xff then invalid_arg "Codec.case";
  Case (tag, c, inj, proj)

let const tag v = case tag unit (fun () -> v) (fun x -> if x = v then Some () else None)

let union cases =
  let rec size_of v = function
    | [] -> invalid_arg "Codec.union: no case accepts the value"
    | Case (_, c, _, proj) :: rest -> (
      match proj v with Some x -> 1 + c.size_of x | None -> size_of v rest)
  in
  let rec write b off v = function
    | [] -> invalid_arg "Codec.union: no case accepts the value"
    | Case (tag, c, _, proj) :: rest -> (
      match proj v with
      | Some x ->
        Bytes.set_uint8 b off tag;
        c.write b (off + 1) x
      | None -> write b off v rest)
  in
  let read cur =
    let tag = u8.read cur in
    match List.find_opt (fun (Case (t, _, _, _)) -> t = tag) cases with
    | Some (Case (_, c, inj, _)) -> inj (c.read cur)
    | None -> raise Malformed
  in
  {
    size_of = (fun v -> size_of v cases);
    write = (fun b off v -> write b off v cases);
    read;
    min_size = 1 + List.fold_left (fun m (Case (_, c, _, _)) -> min m c.min_size) max_int cases;
    fixed = None;
  }

let result ok err =
  union
    [
      case 0 ok Result.ok (function Ok x -> Some x | Error _ -> None);
      case 1 err Result.error (function Error e -> Some e | Ok _ -> None);
    ]
