module Bigint = Alpenhorn_bigint.Bigint

type point = Inf | Affine of { x : Bigint.t; y : Bigint.t }

let infinity = Inf

let is_on_curve f p =
  match p with
  | Inf -> true
  | Affine { x; y } ->
    Field.equal (Field.sqr f y) (Field.add f (Field.mul f (Field.sqr f x) x) Bigint.one)

let make f ~x ~y =
  let p = Affine { x; y } in
  if is_on_curve f p then p else invalid_arg "Curve.make: not on curve"

let equal a b =
  match (a, b) with
  | Inf, Inf -> true
  | Affine a, Affine b -> Bigint.equal a.x b.x && Bigint.equal a.y b.y
  | Inf, Affine _ | Affine _, Inf -> false

let neg f p =
  match p with Inf -> Inf | Affine { x; y } -> Affine { x; y = Field.neg f y }

let double f p =
  match p with
  | Inf -> Inf
  | Affine { x; y } ->
    if Field.is_zero y then Inf
    else begin
      let lambda = Field.mul f (Field.mul_int f (Field.sqr f x) 3) (Field.inv f (Field.mul_int f y 2)) in
      let x3 = Field.sub f (Field.sqr f lambda) (Field.mul_int f x 2) in
      let y3 = Field.sub f (Field.mul f lambda (Field.sub f x x3)) y in
      Affine { x = x3; y = y3 }
    end

let add f p q =
  match (p, q) with
  | Inf, r | r, Inf -> r
  | Affine a, Affine b ->
    if Bigint.equal a.x b.x then begin
      if Bigint.equal a.y b.y then double f p else Inf
    end
    else begin
      let lambda = Field.mul f (Field.sub f b.y a.y) (Field.inv f (Field.sub f b.x a.x)) in
      let x3 = Field.sub f (Field.sub f (Field.sqr f lambda) a.x) b.x in
      let y3 = Field.sub f (Field.mul f lambda (Field.sub f a.x x3)) a.y in
      Affine { x = x3; y = y3 }
    end

let mul_affine f k p =
  if Bigint.sign k < 0 then invalid_arg "Curve.mul: negative scalar";
  let nb = Bigint.numbits k in
  let acc = ref Inf and b = ref p in
  for i = 0 to nb - 1 do
    if Bigint.testbit k i then acc := add f !acc !b;
    b := double f !b
  done;
  !acc

(* Jacobian coordinates (X : Y : Z) ≡ (X/Z², Y/Z³), Z = 0 for infinity,
   over the fixed-limb Montgomery kernel: scalar multiplication with a
   single inversion at the end instead of one per point operation, every
   field operation an in-place FIOS multiplication on flat int arrays.
   This is what [mul] and the fixed-base tables run on; the affine ladder
   [mul_affine] above stays as the reference the property tests compare
   against. *)
module Jm = struct
  (* the coordinates' arrays are updated in place; Z = 0 is infinity *)
  type t = { x : Mont.el; y : Mont.el; z : Mont.el }

  (* the formulas' temporaries: one per ladder, never shared across domains *)
  type scratch = {
    a : Mont.el;
    b : Mont.el;
    c : Mont.el;
    d : Mont.el;
    e : Mont.el;
    f : Mont.el;
    g : Mont.el;
    h : Mont.el;
  }

  let scratch ctx =
    let el () = Mont.zero ctx in
    { a = el (); b = el (); c = el (); d = el (); e = el (); f = el (); g = el (); h = el () }

  let infinity ctx = { x = Mont.one ctx; y = Mont.one ctx; z = Mont.zero ctx }
  let is_infinity p = Mont.is_zero p.z
  let copy p = { x = Array.copy p.x; y = Array.copy p.y; z = Array.copy p.z }

  let of_affine ctx = function
    | Inf -> infinity ctx
    | Affine { x; y } -> { x = Mont.of_bigint ctx x; y = Mont.of_bigint ctx y; z = Mont.one ctx }

  let to_affine ctx p =
    if is_infinity p then Inf
    else begin
      let zinv = Mont.inv ctx p.z in
      let zinv2 = Mont.sqr ctx zinv in
      Affine
        {
          x = Mont.to_bigint ctx (Mont.mul ctx p.x zinv2);
          y = Mont.to_bigint ctx (Mont.mul ctx p.y (Mont.mul ctx zinv2 zinv));
        }
    end

  (* p ← 2p (dbl-2009-l, 2M + 5S) *)
  let double_into ctx s p =
    if is_infinity p then ()
    else if Mont.is_zero p.y then Mont.zero_into p.z
    else begin
      Mont.mul_into ctx s.a p.x p.x;
      Mont.mul_into ctx s.b p.y p.y;
      Mont.mul_into ctx s.c s.b s.b;
      (* D = 2((X + B)² − A − C) *)
      Mont.add_into ctx s.d p.x s.b;
      Mont.mul_into ctx s.d s.d s.d;
      Mont.sub_into ctx s.d s.d s.a;
      Mont.sub_into ctx s.d s.d s.c;
      Mont.mul_small_into ctx s.d s.d 2;
      (* E = 3A, F = E² *)
      Mont.mul_small_into ctx s.e s.a 3;
      Mont.mul_into ctx s.f s.e s.e;
      (* Z3 = 2YZ, X3 = F − 2D, Y3 = E(D − X3) − 8C *)
      Mont.mul_into ctx p.z p.y p.z;
      Mont.mul_small_into ctx p.z p.z 2;
      Mont.mul_small_into ctx s.g s.d 2;
      Mont.sub_into ctx p.x s.f s.g;
      Mont.sub_into ctx s.d s.d p.x;
      Mont.mul_into ctx s.d s.e s.d;
      Mont.mul_small_into ctx s.c s.c 8;
      Mont.sub_into ctx p.y s.d s.c
    end

  (* acc ← acc + q (add-2007-bl, 11M + 5S). [q] is only read and must not
     be [acc]; an infinite [acc] takes a copy of [q], never [q] itself. *)
  let add_into ctx s acc q =
    if is_infinity q then ()
    else if is_infinity acc then begin
      Mont.copy_into acc.x q.x;
      Mont.copy_into acc.y q.y;
      Mont.copy_into acc.z q.z
    end
    else begin
      Mont.mul_into ctx s.a acc.z acc.z (* Z1Z1 *);
      Mont.mul_into ctx s.b q.z q.z (* Z2Z2 *);
      Mont.mul_into ctx s.c acc.x s.b (* U1 *);
      Mont.mul_into ctx s.d q.x s.a (* U2 *);
      Mont.mul_into ctx s.e q.z s.b;
      Mont.mul_into ctx s.e acc.y s.e (* S1 *);
      Mont.mul_into ctx s.f acc.z s.a;
      Mont.mul_into ctx s.f q.y s.f (* S2 *);
      if Mont.equal s.c s.d then begin
        if Mont.equal s.e s.f then double_into ctx s acc else Mont.zero_into acc.z
      end
      else begin
        (* H = U2 − U1, I = (2H)², J = H·I, r = 2(S2 − S1), V = U1·I *)
        Mont.sub_into ctx s.d s.d s.c;
        Mont.mul_small_into ctx s.g s.d 2;
        Mont.mul_into ctx s.g s.g s.g;
        Mont.mul_into ctx s.h s.d s.g;
        Mont.sub_into ctx s.f s.f s.e;
        Mont.mul_small_into ctx s.f s.f 2;
        Mont.mul_into ctx s.c s.c s.g;
        (* Z3 = ((Z1 + Z2)² − Z1Z1 − Z2Z2)·H *)
        Mont.add_into ctx acc.z acc.z q.z;
        Mont.mul_into ctx acc.z acc.z acc.z;
        Mont.sub_into ctx acc.z acc.z s.a;
        Mont.sub_into ctx acc.z acc.z s.b;
        Mont.mul_into ctx acc.z acc.z s.d;
        (* X3 = r² − J − 2V *)
        Mont.mul_into ctx acc.x s.f s.f;
        Mont.sub_into ctx acc.x acc.x s.h;
        Mont.mul_small_into ctx s.g s.c 2;
        Mont.sub_into ctx acc.x acc.x s.g;
        (* Y3 = r(V − X3) − 2·S1·J *)
        Mont.sub_into ctx s.c s.c acc.x;
        Mont.mul_into ctx s.c s.f s.c;
        Mont.mul_into ctx s.e s.e s.h;
        Mont.mul_small_into ctx s.e s.e 2;
        Mont.sub_into ctx acc.y s.c s.e
      end
    end
end

let window_bits = 4

(* bits [4w .. 4w+3] of k *)
let digit k w =
  let b = window_bits * w in
  (if Bigint.testbit k b then 1 else 0)
  lor (if Bigint.testbit k (b + 1) then 2 else 0)
  lor (if Bigint.testbit k (b + 2) then 4 else 0)
  lor (if Bigint.testbit k (b + 3) then 8 else 0)

(* odd multiples would halve the table, but 1..15 keeps the window loop
   branch-free: one add per nonzero digit, no signed recoding *)
let small_multiples ctx s base =
  let tbl = Array.make 16 base in
  tbl.(0) <- Jm.infinity ctx;
  for i = 2 to 15 do
    let even = i land 1 = 0 in
    let pt = Jm.copy tbl.(if even then i lsr 1 else i - 1) in
    if even then Jm.double_into ctx s pt else Jm.add_into ctx s pt base;
    tbl.(i) <- pt
  done;
  tbl

(* windowed ladder core: [p] must be affine, [k] positive; the result
   stays Jacobian so callers can share the affine-conversion inversion *)
let mul_jm ctx k p =
  let s = Jm.scratch ctx in
  let tbl = small_multiples ctx s (Jm.of_affine ctx p) in
  let nwin = (Bigint.numbits k + window_bits - 1) / window_bits in
  let acc = Jm.infinity ctx in
  for w = nwin - 1 downto 0 do
    if w < nwin - 1 then
      for _ = 1 to window_bits do
        Jm.double_into ctx s acc
      done;
    let d = digit k w in
    if d <> 0 then Jm.add_into ctx s acc tbl.(d)
  done;
  acc

let mul f k p =
  if Bigint.sign k < 0 then invalid_arg "Curve.mul: negative scalar";
  match p with
  | Inf -> Inf
  | Affine _ when Bigint.is_zero k -> Inf
  | Affine _ ->
    let ctx = Field.mont_ctx f in
    Jm.to_affine ctx (mul_jm ctx k p)

(* shared Jacobian→affine conversion: Montgomery's trick turns the n
   inversions (one Fermat exponentiation each) into one inversion plus
   3(n−1) multiplications *)
let to_affine_batch ctx js =
  let zs =
    Array.of_list
      (List.filter_map (fun j -> if Jm.is_infinity j then None else Some j.Jm.z) js)
  in
  let n = Array.length zs in
  if n = 0 then List.map (fun _ -> Inf) js
  else begin
    let c = Array.make n zs.(0) in
    for i = 1 to n - 1 do
      c.(i) <- Mont.mul ctx c.(i - 1) zs.(i)
    done;
    let u = ref (Mont.inv ctx c.(n - 1)) in
    let zinvs = Array.make n !u in
    for i = n - 1 downto 1 do
      zinvs.(i) <- Mont.mul ctx !u c.(i - 1);
      u := Mont.mul ctx !u zs.(i)
    done;
    zinvs.(0) <- !u;
    let idx = ref 0 in
    List.map
      (fun j ->
        if Jm.is_infinity j then Inf
        else begin
          let zinv = zinvs.(!idx) in
          incr idx;
          let zinv2 = Mont.sqr ctx zinv in
          Affine
            {
              x = Mont.to_bigint ctx (Mont.mul ctx j.Jm.x zinv2);
              y = Mont.to_bigint ctx (Mont.mul ctx j.Jm.y (Mont.mul ctx zinv2 zinv));
            }
        end)
      js
  end

(* Σ kᵢ·Pᵢ with one shared window walk: the accumulator is doubled once
   per window for all terms together, and the whole sum pays a single
   Jacobian→affine inversion — folding [mul] and [add] would pay the
   doubling chain and an inversion per term. The win is largest for many
   short scalars (Bls.verify_batch's 64-bit blinding factors). *)
let msm_jm ctx kps =
  let kps =
    List.filter
      (fun (k, p) ->
        if Bigint.sign k < 0 then invalid_arg "Curve.msm: negative scalar";
        (not (Bigint.is_zero k)) && match p with Inf -> false | Affine _ -> true)
      kps
  in
  match kps with
  | [] -> Jm.infinity ctx
  | kps ->
    let s = Jm.scratch ctx in
    let terms = List.map (fun (k, p) -> (k, small_multiples ctx s (Jm.of_affine ctx p))) kps in
    let maxbits = List.fold_left (fun m (k, _) -> Stdlib.max m (Bigint.numbits k)) 0 kps in
    let nwin = (maxbits + window_bits - 1) / window_bits in
    let acc = Jm.infinity ctx in
    let add_digit w (k, tbl) =
      let d = digit k w in
      if d <> 0 then Jm.add_into ctx s acc tbl.(d)
    in
    for w = nwin - 1 downto 0 do
      if w < nwin - 1 then
        for _ = 1 to window_bits do
          Jm.double_into ctx s acc
        done;
      List.iter (add_digit w) terms
    done;
    acc

let msm f kps =
  let ctx = Field.mont_ctx f in
  Jm.to_affine ctx (msm_jm ctx kps)

(* one Σ kᵢ·Pᵢ per group, all groups sharing a single final inversion *)
let msm_batch f groups =
  let ctx = Field.mont_ctx f in
  to_affine_batch ctx (List.map (msm_jm ctx) groups)

(* Fixed-base comb: for a long-lived point (the generator, a PKG master
   key) precompute j·2^(4i)·P for every window i and digit j, turning each
   scalar multiplication into ~numbits(k)/4 additions and no doublings. *)
module Fixed_base = struct
  type table = { point : point; windows : Jm.t array array (* windows.(i).(j-1) = j·2^(4i)·P *) }

  let make f p =
    match p with
    | Inf -> { point = p; windows = [||] }
    | Affine _ ->
      let ctx = Field.mont_ctx f in
      (* cover any scalar below p; protocol scalars are below q < p *)
      let nwin = (Bigint.numbits (Field.modulus f) + window_bits - 1) / window_bits in
      let windows = Array.make nwin [||] in
      let s = Jm.scratch ctx in
      let b = ref (Jm.of_affine ctx p) in
      for i = 0 to nwin - 1 do
        let row = Array.make 15 !b in
        for j = 1 to 14 do
          let pt = Jm.copy row.(j - 1) in
          Jm.add_into ctx s pt !b;
          row.(j) <- pt
        done;
        windows.(i) <- row;
        (* 2^(4(i+1))·P = 2 · (8·2^(4i)·P) *)
        let next = Jm.copy row.(7) in
        Jm.double_into ctx s next;
        b := next
      done;
      { point = p; windows }

  let mul f tbl k =
    if Bigint.sign k < 0 then invalid_arg "Curve.Fixed_base.mul: negative scalar";
    match tbl.point with
    | Inf -> Inf
    | Affine _ when Bigint.is_zero k -> Inf
    | Affine _ ->
      let nwin = Array.length tbl.windows in
      if Bigint.numbits k > window_bits * nwin then mul f k tbl.point
      else begin
        let ctx = Field.mont_ctx f in
        let s = Jm.scratch ctx and acc = Jm.infinity ctx in
        for w = 0 to nwin - 1 do
          let d = digit k w in
          if d <> 0 then Jm.add_into ctx s acc tbl.windows.(w).(d - 1)
        done;
        Jm.to_affine ctx acc
      end
end

let point_bytes f = Field.element_bytes f + 1

let to_bytes f p =
  match p with
  | Inf -> String.make (point_bytes f) '\xff'
  | Affine { x; y } ->
    Field.to_bytes f x ^ String.make 1 (if Bigint.is_even y then '\x00' else '\x01')

let of_bytes f s =
  if String.length s <> point_bytes f then None
  else if String.for_all (fun c -> c = '\xff') s then Some Inf
  else begin
    let n = Field.element_bytes f in
    match s.[n] with
    | '\x00' | '\x01' -> begin
      match Field.of_bytes_opt f (String.sub s 0 n) with
      | None -> None
      | Some x ->
        let ctx = Field.mont_ctx f in
        let xm = Mont.of_bigint ctx x in
        let rhs = Mont.add ctx (Mont.mul ctx (Mont.sqr ctx xm) xm) (Mont.one ctx) in
        (match Mont.sqrt ctx rhs with
         | None -> None
         | Some y ->
           let y = Mont.to_bigint ctx y in
           let want_odd = s.[n] = '\x01' in
           (* −0 = 0 keeps its parity: (x, 0) has only the even encoding *)
           if want_odd && Bigint.is_zero y then None
           else begin
             let y = if Bigint.is_even y = want_odd then Field.neg f y else y in
             Some (Affine { x; y })
           end)
    end
    | _ -> None
  end
