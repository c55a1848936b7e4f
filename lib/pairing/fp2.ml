module Bigint = Alpenhorn_bigint.Bigint

type el = { re : Bigint.t; im : Bigint.t }

let zero = { re = Bigint.zero; im = Bigint.zero }
let one = { re = Bigint.one; im = Bigint.zero }
let make re im = { re; im }
let of_fp re = { re; im = Bigint.zero }

let equal a b = Bigint.equal a.re b.re && Bigint.equal a.im b.im
let is_zero a = Bigint.is_zero a.re && Bigint.is_zero a.im
let in_base_field a = Bigint.is_zero a.im

let add f a b = { re = Field.add f a.re b.re; im = Field.add f a.im b.im }
let sub f a b = { re = Field.sub f a.re b.re; im = Field.sub f a.im b.im }

let mul f a b =
  (* (a.re + a.im i)(b.re + b.im i), i² = -1, Karatsuba-style 3 mults *)
  let t0 = Field.mul f a.re b.re in
  let t1 = Field.mul f a.im b.im in
  let t2 = Field.mul f (Field.add f a.re a.im) (Field.add f b.re b.im) in
  { re = Field.sub f t0 t1; im = Field.sub f (Field.sub f t2 t0) t1 }

let sqr f a =
  (* (re² - im²) + 2·re·im·i *)
  let t0 = Field.mul f (Field.add f a.re a.im) (Field.sub f a.re a.im) in
  let t1 = Field.mul f a.re a.im in
  { re = t0; im = Field.add f t1 t1 }

let mul_fp f a c = { re = Field.mul f a.re c; im = Field.mul f a.im c }
let conj f a = { re = a.re; im = Field.neg f a.im }

let inv f a =
  let norm = Field.add f (Field.sqr f a.re) (Field.sqr f a.im) in
  let ninv = Field.inv f norm in
  { re = Field.mul f a.re ninv; im = Field.neg f (Field.mul f a.im ninv) }

let pow f base e =
  let nb = Bigint.numbits e in
  let acc = ref one and b = ref base in
  for i = 0 to nb - 1 do
    if Bigint.testbit e i then acc := mul f !acc !b;
    b := sqr f !b
  done;
  !acc

let to_bytes f a = Field.to_bytes f a.re ^ Field.to_bytes f a.im

let of_bytes f s =
  let n = Field.element_bytes f in
  if String.length s <> 2 * n then None
  else begin
    match (Field.of_bytes_opt f (String.sub s 0 n), Field.of_bytes_opt f (String.sub s n n)) with
    | Some re, Some im -> Some { re; im }
    | _ -> None
  end
