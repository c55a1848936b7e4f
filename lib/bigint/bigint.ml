(* Arbitrary-precision integers on 31-bit limbs.

   Representation invariant: [mag] is little-endian with no leading zero
   limb; [sign] is 0 iff [mag] is empty, otherwise -1 or 1. All functions
   below preserve this invariant via [make]. *)

let limb_bits = 31
let base = 1 lsl limb_bits
let mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* ---- magnitude helpers (arrays of limbs, unsigned) ---- *)

let mag_normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let make sign mag =
  let mag = mag_normalize mag in
  if Array.length mag = 0 then zero else { sign; mag }

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  r

(* requires a >= b *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin r.(i) <- s + base; borrow := 1 end
    else begin r.(i) <- s; borrow := 0 end
  done;
  assert (!borrow = 0);
  r

(* Schoolbook only: the largest products on any path are about 480 bits
   (p·p and R² on the production curve, 16 limbs), so a Karatsuba split,
   which pays only past a few dozen limbs, would never run. *)
let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          (* ai*bj <= (2^31-1)^2 < 2^62; adding two limbs keeps it < 2^63 *)
          let s = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- s land mask;
          carry := s lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land mask;
          carry := s lsr limb_bits;
          incr k
        done
      end
    done;
    r
  end

let mag_shift_left a n =
  let la = Array.length a in
  if la = 0 then [||]
  else begin
    let limbs = n / limb_bits and bits = n mod limb_bits in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else
      for i = 0 to la - 1 do
        let v = a.(i) lsl bits in
        r.(i + limbs) <- r.(i + limbs) lor (v land mask);
        r.(i + limbs + 1) <- r.(i + limbs + 1) lor (v lsr limb_bits)
      done;
    r
  end

let mag_shift_right a n =
  let la = Array.length a in
  let limbs = n / limb_bits and bits = n mod limb_bits in
  if limbs >= la then [||]
  else begin
    let lr = la - limbs in
    let r = Array.make lr 0 in
    if bits = 0 then Array.blit a limbs r 0 lr
    else
      for i = 0 to lr - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - bits)) land mask else 0 in
        r.(i) <- lo lor hi
      done;
    r
  end

let mag_numbits a =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    ((la - 1) * limb_bits) + bits top 0
  end

(* Knuth TAOCP vol 2, Algorithm D. [u] / [v] with len v >= 2, returns (q, r)
   magnitudes. *)
let mag_divmod_knuth u v =
  let n = Array.length v in
  let shift = limb_bits - (mag_numbits v - (n - 1) * limb_bits) in
  let v = mag_normalize (mag_shift_left v shift) in
  let u = mag_shift_left u shift in
  let m = (let lu = mag_numbits u in ((lu + limb_bits - 1) / limb_bits)) - n in
  let m = if m < 0 then 0 else m in
  let u = Array.append (Array.sub u 0 (Stdlib.min (Array.length u) (m + n))) [| 0 |] in
  let u =
    if Array.length u < m + n + 1 then Array.append u (Array.make (m + n + 1 - Array.length u) 0) else u
  in
  let q = Array.make (m + 1) 0 in
  let vtop = v.(n - 1) in
  let vtop2 = if n >= 2 then v.(n - 2) else 0 in
  for j = m downto 0 do
    (* Estimate qhat from the top two limbs of the current remainder. *)
    let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
    let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
    if !qhat >= base then begin qhat := base - 1; rhat := num - !qhat * vtop end;
    let continue = ref true in
    while !continue && !rhat < base do
      if !qhat * vtop2 > (!rhat lsl limb_bits) lor (if n >= 2 then u.(j + n - 2) else 0) then begin
        decr qhat;
        rhat := !rhat + vtop
      end else continue := false
    done;
    (* Multiply and subtract: u[j..j+n] -= qhat * v *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * v.(i) + !carry in
      carry := p lsr limb_bits;
      let s = u.(i + j) - (p land mask) - !borrow in
      if s < 0 then begin u.(i + j) <- s + base; borrow := 1 end
      else begin u.(i + j) <- s; borrow := 0 end
    done;
    let s = u.(j + n) - !carry - !borrow in
    if s < 0 then begin
      (* qhat was one too large: add back *)
      u.(j + n) <- s + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let t = u.(i + j) + v.(i) + !c in
        u.(i + j) <- t land mask;
        c := t lsr limb_bits
      done;
      u.(j + n) <- (u.(j + n) + !c) land mask
    end else u.(j + n) <- s;
    q.(j) <- !qhat
  done;
  let r = mag_shift_right (mag_normalize (Array.sub u 0 n)) shift in
  (mag_normalize q, mag_normalize r)

(* Division by a single limb. *)
let mag_divmod1 u d =
  let lu = Array.length u in
  let q = Array.make lu 0 in
  let r = ref 0 in
  for i = lu - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor u.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (mag_normalize q, !r)

let mag_divmod u v =
  match Array.length v with
  | 0 -> raise Division_by_zero
  | 1 ->
    let q, r = mag_divmod1 u v.(0) in
    (q, if r = 0 then [||] else [| r |])
  | _ ->
    if mag_compare u v < 0 then ([||], Array.copy u)
    else mag_divmod_knuth u v

(* ---- signed layer ---- *)

let sign t = t.sign
let is_zero t = t.sign = 0

(* Expose the 31-bit limb magnitude so fixed-width kernels (Montgomery
   arithmetic in lib/pairing) can convert without going through bytes. *)
let to_limbs t = Array.copy t.mag
let of_limbs limbs = make 1 (Array.copy limbs)

let of_int n =
  if n = 0 then zero
  else begin
    let s = if n < 0 then -1 else 1 in
    let n = abs n in
    let rec limbs n acc = if n = 0 then acc else limbs (n lsr limb_bits) ((n land mask) :: acc) in
    make s (Array.of_list (List.rev (limbs n [])))
  end

let one = of_int 1
let two = of_int 2

let to_int t =
  let l = Array.length t.mag in
  if l > 3 then failwith "Bigint.to_int: overflow"
  else begin
    let v = ref 0 in
    for i = l - 1 downto 0 do
      if !v > max_int lsr limb_bits then failwith "Bigint.to_int: overflow";
      v := (!v lsl limb_bits) lor t.mag.(i)
    done;
    !v * t.sign
  end

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then mag_compare a.mag b.mag
  else mag_compare b.mag a.mag

let equal a b = compare a b = 0
let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (mag_add a.mag b.mag)
  else begin
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (mag_sub a.mag b.mag)
    else make b.sign (mag_sub b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero else make (a.sign * b.sign) (mag_mul a.mag b.mag)

let mul_int a n = mul a (of_int n)
let is_even t = Array.length t.mag = 0 || t.mag.(0) land 1 = 0

(* Euclidean divmod: remainder always in [0, |b|). *)
let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let qm, rm = mag_divmod a.mag b.mag in
  let q = make (a.sign * b.sign) qm and r = make a.sign rm in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (sub q one, add r b)
  else (add q one, sub r b)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let shift_left t n =
  if n < 0 then invalid_arg "Bigint.shift_left" else make t.sign (mag_shift_left t.mag n)

let shift_right t n =
  if n < 0 then invalid_arg "Bigint.shift_right"
  else if t.sign >= 0 then make t.sign (mag_shift_right t.mag n)
  else begin
    (* arithmetic shift for negatives: floor division by 2^n *)
    let q, r = divmod t (shift_left one n) in
    ignore r; q
  end

let testbit t n =
  let limb = n / limb_bits and bit = n mod limb_bits in
  limb < Array.length t.mag && (t.mag.(limb) lsr bit) land 1 = 1

let numbits t = mag_numbits t.mag

let pow a n =
  if n < 0 then invalid_arg "Bigint.pow";
  let rec go acc base n =
    if n = 0 then acc
    else begin
      let acc = if n land 1 = 1 then mul acc base else acc in
      go acc (mul base base) (n lsr 1)
    end
  in
  go one a n

let mod_pow base_ exp m =
  if m.sign <= 0 then invalid_arg "Bigint.mod_pow: modulus";
  if exp.sign < 0 then invalid_arg "Bigint.mod_pow: exponent";
  let nb = numbits exp in
  let b = ref (rem base_ m) and acc = ref one in
  for i = 0 to nb - 1 do
    if testbit exp i then acc := rem (mul !acc !b) m;
    b := rem (mul !b !b) m
  done;
  !acc

let rec gcd a b = if is_zero b then abs a else gcd b (rem a b)

let mod_inv a m =
  (* extended Euclid on (a mod m, m) *)
  let rec go r0 r1 s0 s1 = if is_zero r1 then (r0, s0) else begin
    let q = div r0 r1 in
    go r1 (sub r0 (mul q r1)) s1 (sub s0 (mul q s1))
  end
  in
  let a = rem a m in
  let g, s = go a m one zero in
  if not (equal g one) then raise Division_by_zero;
  rem s m

(* ---- strings and bytes ---- *)

(* Bytes and 31-bit limbs are packed into each other directly, the low
   end first: a byte's bits go to the current limb and spill into the next
   one, so both codecs are linear in the length. *)
let of_bytes_be s =
  let n = String.length s in
  let mag = Array.make (((8 * n) + limb_bits - 1) / limb_bits) 0 in
  for i = 0 to n - 1 do
    let v = Char.code s.[n - 1 - i] and bit = 8 * i in
    let j = bit / limb_bits and off = bit mod limb_bits in
    mag.(j) <- mag.(j) lor ((v lsl off) land mask);
    if off > limb_bits - 8 then mag.(j + 1) <- mag.(j + 1) lor (v lsr (limb_bits - off))
  done;
  make 1 mag

let to_bytes_be ?len t =
  let nbytes = (numbits t + 7) / 8 in
  let out_len = match len with
    | None -> Stdlib.max nbytes 1
    | Some l -> if l < Stdlib.max nbytes 1 then invalid_arg "Bigint.to_bytes_be: len too small" else l
  in
  let b = Bytes.make out_len '\000' and la = Array.length t.mag in
  for i = 0 to nbytes - 1 do
    let bit = 8 * i in
    let j = bit / limb_bits and off = bit mod limb_bits in
    let v = t.mag.(j) lsr off in
    let v = if off > limb_bits - 8 && j + 1 < la then v lor (t.mag.(j + 1) lsl (limb_bits - off)) else v in
    Bytes.set b (out_len - 1 - i) (Char.unsafe_chr (v land 0xff))
  done;
  Bytes.to_string b

let to_hex t =
  if is_zero t then "0"
  else begin
    let buf = Buffer.create 32 in
    if t.sign < 0 then Buffer.add_char buf '-';
    let bytes = to_bytes_be t in
    let started = ref false in
    String.iter
      (fun c ->
        let v = Char.code c in
        if !started then Buffer.add_string buf (Printf.sprintf "%02x" v)
        else if v <> 0 then begin started := true; Buffer.add_string buf (Printf.sprintf "%x" v) end)
      bytes;
    Buffer.contents buf
  end

let to_string t =
  if is_zero t then "0"
  else begin
    (* extract 9 decimal digits at a time *)
    let chunk = of_int 1_000_000_000 in
    let rec go v acc =
      if is_zero v then acc
      else begin
        let q, r = divmod v chunk in
        go q (to_int r :: acc)
      end
    in
    let parts = go (abs t) [] in
    let buf = Buffer.create 32 in
    if t.sign < 0 then Buffer.add_char buf '-';
    (match parts with
     | [] -> assert false
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun p -> Buffer.add_string buf (Printf.sprintf "%09d" p)) rest);
    Buffer.contents buf
  end

let of_string s =
  let fail () = invalid_arg "Bigint.of_string" in
  if String.length s = 0 then fail ();
  let negative = s.[0] = '-' in
  let s = if negative then String.sub s 1 (String.length s - 1) else s in
  if String.length s = 0 then fail ();
  let v =
    if String.length s > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then begin
      let acc = ref zero in
      String.iter
        (fun c ->
          let d =
            match c with
            | '0' .. '9' -> Char.code c - Char.code '0'
            | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
            | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
            | '_' -> -1
            | _ -> fail ()
          in
          if d >= 0 then acc := add (shift_left !acc 4) (of_int d))
        (String.sub s 2 (String.length s - 2));
      !acc
    end
    else begin
      let acc = ref zero in
      String.iter
        (fun c ->
          match c with
          | '0' .. '9' -> acc := add (mul_int !acc 10) (of_int (Char.code c - Char.code '0'))
          | '_' -> ()
          | _ -> fail ())
        s;
      !acc
    end
  in
  if negative then neg v else v

(* ---- randomness and primality ---- *)

let random_bits ~rand_bytes bits =
  if bits <= 0 then zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let s = rand_bytes nbytes in
    let excess = nbytes * 8 - bits in
    let b = Bytes.of_string s in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land (0xff lsr excess)));
    of_bytes_be (Bytes.to_string b)
  end

let random_below ~rand_bytes bound =
  if compare bound zero <= 0 then invalid_arg "Bigint.random_below";
  let bits = numbits bound in
  let rec go () =
    let v = random_bits ~rand_bytes bits in
    if compare v bound < 0 then v else go ()
  in
  go ()

let is_probable_prime ?(rounds = 24) ~rand n =
  let n = abs n in
  if compare n two < 0 then false
  else if equal n two || equal n (of_int 3) then true
  else if is_even n then false
  else begin
    (* n - 1 = d * 2^s *)
    let nm1 = sub n one in
    let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
    let d, s = split nm1 0 in
    let witness a =
      let a = rem a n in
      if is_zero a then false
      else begin
        let x = ref (mod_pow a d n) in
        if equal !x one || equal !x nm1 then false
        else begin
          let composite = ref true in
          (try
             for _ = 1 to s - 1 do
               x := rem (mul !x !x) n;
               if equal !x nm1 then begin composite := false; raise Exit end
             done
           with Exit -> ());
          !composite
        end
      end
    in
    if witness two || witness (of_int 3) then false
    else begin
      let bits = numbits n in
      let rec loop i =
        if i = 0 then true
        else begin
          let a = add two (rem (rand ~bits) (sub n (of_int 4))) in
          if witness a then false else loop (i - 1)
        end
      in
      loop rounds
    end
  end
