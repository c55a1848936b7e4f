module Bigint = Alpenhorn_bigint.Bigint

(* Jacobian coordinates (X : Y : Z) ≡ (X/Z², Y/Z³), Z = 0 for infinity,
   over the fixed-limb Montgomery kernel: every operation runs with a
   single inversion at the end instead of one per point operation, every
   field operation an in-place FIOS multiplication on flat int arrays. A
   [point] is one of these, normalized. *)
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

  (* Every finite point of [ps] to Z = 1, in place. [Mont.inv_all] shares
     one inversion (a Fermat exponentiation) among them all, for 3(n−1)
     multiplications, then each point takes 4 more. No two points share a
     coordinate array, so each Z is inverted where it lies. *)
  let normalize ctx ps =
    let fin = Array.of_seq (Seq.filter (fun p -> not (is_infinity p)) (Array.to_seq ps)) in
    Mont.inv_all ctx (Array.map (fun p -> p.z) fin);
    let t = Mont.zero ctx in
    Array.iter
      (fun p ->
        (* Z holds 1/Z *)
        Mont.mul_into ctx t p.z p.z;
        Mont.mul_into ctx p.x p.x t;
        Mont.mul_into ctx t t p.z;
        Mont.mul_into ctx p.y p.y t;
        Mont.one_into ctx p.z)
      fin

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

  (* acc ← acc + q for a normalized q (Z = 1, or 0 for infinity), the
     mixed addition madd-2007-bl (7M + 4S). [q] is only read and must not
     be [acc]. *)
  let madd_into ctx s acc q =
    if is_infinity q then ()
    else if is_infinity acc then begin
      Mont.copy_into acc.x q.x;
      Mont.copy_into acc.y q.y;
      Mont.one_into ctx acc.z
    end
    else begin
      Mont.mul_into ctx s.a acc.z acc.z (* Z1Z1 *);
      Mont.mul_into ctx s.b q.x s.a (* U2 *);
      Mont.mul_into ctx s.c acc.z s.a;
      Mont.mul_into ctx s.c q.y s.c (* S2 *);
      if Mont.equal s.b acc.x then begin
        if Mont.equal s.c acc.y then double_into ctx s acc else Mont.zero_into acc.z
      end
      else begin
        (* H = U2 − X1, HH = H², I = 4·HH, J = H·I, r = 2(S2 − Y1), V = X1·I *)
        Mont.sub_into ctx s.b s.b acc.x;
        Mont.mul_into ctx s.d s.b s.b;
        Mont.mul_small_into ctx s.e s.d 4;
        Mont.mul_into ctx s.f s.b s.e;
        Mont.sub_into ctx s.c s.c acc.y;
        Mont.mul_small_into ctx s.c s.c 2;
        Mont.mul_into ctx s.e acc.x s.e;
        (* Z3 = (Z1 + H)² − Z1Z1 − HH *)
        Mont.add_into ctx acc.z acc.z s.b;
        Mont.mul_into ctx acc.z acc.z acc.z;
        Mont.sub_into ctx acc.z acc.z s.a;
        Mont.sub_into ctx acc.z acc.z s.d;
        (* X3 = r² − J − 2V *)
        Mont.mul_into ctx acc.x s.c s.c;
        Mont.sub_into ctx acc.x acc.x s.f;
        Mont.mul_small_into ctx s.g s.e 2;
        Mont.sub_into ctx acc.x acc.x s.g;
        (* Y3 = r(V − X3) − 2·Y1·J *)
        Mont.sub_into ctx s.e s.e acc.x;
        Mont.mul_into ctx s.e s.c s.e;
        Mont.mul_into ctx s.f acc.y s.f;
        Mont.mul_small_into ctx s.f s.f 2;
        Mont.sub_into ctx acc.y s.e s.f
      end
    end
end

(* A normalized Jacobian point (Z = 1), or [infinity]. The arrays of a
   point are never written once it is returned: combs, [Params.g], the
   pairing cache and pool workers share them. *)
type point = Jm.t

(* the one infinite point: empty coordinates, so [Jm.is_infinity] holds *)
let infinity : point = { Jm.x = [||]; y = [||]; z = [||] }

let is_infinity = Jm.is_infinity

let equal (a : point) (b : point) =
  if is_infinity a || is_infinity b then is_infinity a && is_infinity b
  else Mont.equal a.Jm.x b.Jm.x && Mont.equal a.y b.y

(* y² = x³ + 1 *)
let on_curve ctx x y =
  let rhs = Mont.mul ctx (Mont.sqr ctx x) x in
  Mont.add_into ctx rhs rhs (Mont.one ctx);
  Mont.equal (Mont.sqr ctx y) rhs

let of_mont f ~x ~y =
  let ctx = Field.mont_ctx f in
  if on_curve ctx x y then { Jm.x; y; z = Mont.one ctx }
  else invalid_arg "Curve.make: not on curve"

let make f ~x ~y =
  let ctx = Field.mont_ctx f in
  of_mont f ~x:(Mont.of_bigint ctx x) ~y:(Mont.of_bigint ctx y)

let mont_coords (p : point) = (p.Jm.x, p.y)

let coords f (p : point) =
  let ctx = Field.mont_ctx f in
  if is_infinity p then None else Some (Mont.to_bigint ctx p.Jm.x, Mont.to_bigint ctx p.y)

(* Jacobian results as points: one shared inversion, then every infinity
   is the canonical one *)
let to_points ctx (ps : Jm.t array) : point array =
  Jm.normalize ctx ps;
  Array.map (fun p -> if is_infinity p then infinity else p) ps

let to_point ctx p = (to_points ctx [| p |]).(0)

let neg f (p : point) : point =
  if is_infinity p then p else { p with Jm.y = Mont.neg (Field.mont_ctx f) p.y }

(* mixed additions into one accumulator, then one inversion *)
let sum f ps =
  let ctx = Field.mont_ctx f in
  let s = Jm.scratch ctx and acc = Jm.infinity ctx in
  List.iter (Jm.madd_into ctx s acc) ps;
  to_point ctx acc

let add f a b = sum f [ a; b ]

(* ---- the affine reference ----

   Bigint coordinates and one inversion per step: the ladder the property
   tests hold the kernel's scalar multiplications to. *)

(* the chord, or the tangent when p = q; O when it is vertical *)
let add_affine f p q =
  match (p, q) with
  | None, r | r, None -> r
  | Some (ax, ay), Some (bx, by) ->
    let tangent = Bigint.equal ax bx in
    if tangent && ((not (Bigint.equal ay by)) || Field.is_zero ay) then None
    else begin
      let lambda =
        if tangent then Field.mul f (Field.mul_int f (Field.sqr f ax) 3) (Field.inv f (Field.mul_int f ay 2))
        else Field.mul f (Field.sub f by ay) (Field.inv f (Field.sub f bx ax))
      in
      let x3 = Field.sub f (Field.sub f (Field.sqr f lambda) ax) bx in
      Some (x3, Field.sub f (Field.mul f lambda (Field.sub f ax x3)) ay)
    end

let mul_affine f k p =
  if Bigint.sign k < 0 then invalid_arg "Curve.mul: negative scalar";
  let acc = ref None and b = ref (coords f p) in
  for i = 0 to Bigint.numbits k - 1 do
    if Bigint.testbit k i then acc := add_affine f !acc !b;
    b := add_affine f !b !b
  done;
  match !acc with None -> infinity | Some (x, y) -> make f ~x ~y

let window_bits = 4

(* bits [4w .. 4w+3] of k *)
let digit k w =
  let b = window_bits * w in
  (if Bigint.testbit k b then 1 else 0)
  lor (if Bigint.testbit k (b + 1) then 2 else 0)
  lor (if Bigint.testbit k (b + 2) then 4 else 0)
  lor (if Bigint.testbit k (b + 3) then 8 else 0)

(* the ladder's table: every multiple 0·P .. 15·P. Odd multiples would
   halve it, but 1..15 keeps the window loop branch-free: one add per
   nonzero digit, no signed recoding *)
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

(* windowed ladder over a [small_multiples] table, [k] non-negative; the
   result stays Jacobian so callers can share the affine-conversion
   inversion *)
let ladder_jm ctx s tbl k =
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

(* k·p, Jacobian, for k > 0 and a finite p *)
let ladder f k p =
  let ctx = Field.mont_ctx f in
  let s = Jm.scratch ctx in
  ladder_jm ctx s (small_multiples ctx s p) k

let mul f k p =
  if Bigint.sign k < 0 then invalid_arg "Curve.mul: negative scalar";
  if is_infinity p || Bigint.is_zero k then infinity else to_point (Field.mont_ctx f) (ladder f k p)

(* no inversion: k·p is O exactly when its Jacobian Z is 0 *)
let order_divides f k p =
  if Bigint.sign k < 0 then invalid_arg "Curve.order_divides: negative scalar";
  is_infinity p || Bigint.is_zero k || Jm.is_infinity (ladder f k p)

(* Σ kᵢ·Pᵢ with one shared window walk: the accumulator is doubled once
   per window for all terms together, and the whole sum pays a single
   Jacobian→affine inversion — folding [mul] and [add] would pay the
   doubling chain and an inversion per term. The win is largest for many
   short scalars (Bls.verify_batch's 64-bit blinding factors). *)
let msm_jm ctx kps =
  let kps =
    List.filter
      (fun (k, p) ->
        if Bigint.sign k < 0 then invalid_arg "Curve.msm_batch: negative scalar";
        not (Bigint.is_zero k || is_infinity p))
      kps
  in
  match kps with
  | [] -> Jm.infinity ctx
  | kps ->
    let s = Jm.scratch ctx in
    let terms = List.map (fun (k, p) -> (k, small_multiples ctx s p)) kps in
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

(* one Σ kᵢ·Pᵢ per group, all groups sharing a single final inversion *)
let msm_batch f groups =
  let ctx = Field.mont_ctx f in
  Array.to_list (to_points ctx (Array.of_list (List.map (msm_jm ctx) groups)))

(* Lim–Lee comb: with [cols] = ⌈bits / w⌉, entry i − 1 (0 < i < 2^w) is
   Σ 2^(j·cols)·P over the set bits j of i, so column c of a scalar's bits
   (bits c, cols + c, …, (w − 1)·cols + c) names one entry, and k·P is
   [cols] rounds of a doubling and a mixed addition. *)
module Comb = struct
  type t = { base : point; w : int; cols : int; entries : Jm.t array (* normalized *) }

  (* the highest set bit of i > 0 *)
  let rec top_bit i = if i land (i - 1) = 0 then i else top_bit (i land (i - 1))

  let make f ~w ~bits base =
    if w < 1 || w > 16 then invalid_arg "Curve.Comb.make: w";
    let ctx = Field.mont_ctx f in
    let s = Jm.scratch ctx in
    let cols = Stdlib.max 1 ((bits + w - 1) / w) in
    let size = (1 lsl w) - 1 in
    let entries = Array.make size (Jm.infinity ctx) in
    (* the teeth: entry 2^j − 1 is 2^(j·cols)·P; normalizing the entries
       writes them, so the first is a copy of P *)
    let tooth = ref (if is_infinity base then Jm.infinity ctx else Jm.copy base) in
    for j = 0 to w - 1 do
      entries.((1 lsl j) - 1) <- !tooth;
      if j < w - 1 then begin
        let next = Jm.copy !tooth in
        for _ = 1 to cols do
          Jm.double_into ctx s next
        done;
        tooth := next
      end
    done;
    (* every other entry: the one without its top bit, plus that tooth *)
    for i = 3 to size do
      if i land (i - 1) <> 0 then begin
        let top = top_bit i in
        let e = Jm.copy entries.(i - top - 1) in
        Jm.add_into ctx s e entries.(top - 1);
        entries.(i - 1) <- e
      end
    done;
    Jm.normalize ctx entries;
    { base; w; cols; entries }

  let walk ctx s c k =
    let acc = Jm.infinity ctx in
    for col = c.cols - 1 downto 0 do
      Jm.double_into ctx s acc;
      let i = ref 0 in
      for j = c.w - 1 downto 0 do
        i := (!i lsl 1) lor Bool.to_int (Bigint.testbit k ((j * c.cols) + col))
      done;
      if !i <> 0 then Jm.madd_into ctx s acc c.entries.(!i - 1)
    done;
    acc

  let mul f c k =
    if Bigint.sign k < 0 then invalid_arg "Curve.Comb.mul: negative scalar";
    if Bigint.numbits k > c.w * c.cols then mul f k c.base
    else begin
      let ctx = Field.mont_ctx f in
      to_point ctx (walk ctx (Jm.scratch ctx) c k)
    end
end

(* Field multiplications of each step above (mul_small_into excluded),
   which decide a batch's method for each base. *)
let dbl_muls = 7
let add_muls = 16
let madd_muls = 11
let normalize_muls = 7

(* a Fermat inversion: a squaring per bit of p and a multiplication per
   set bit, about half of them *)
let inv_muls f = 3 * Bigint.numbits (Field.modulus f) / 2

let ladder_table_muls = 7 * (dbl_muls + add_muls)

let ladder_walk_muls bits =
  let nwin = (bits + window_bits - 1) / window_bits in
  (window_bits * (nwin - 1) * dbl_muls) + (nwin * add_muls)

(* the width of the combs a batch builds *)
let batch_comb_w = 6

let comb_cols bits = (bits + batch_comb_w - 1) / batch_comb_w
let comb_walk_muls bits = comb_cols bits * (dbl_muls + madd_muls)

let comb_build_muls f bits =
  let size = (1 lsl batch_comb_w) - 1 in
  ((batch_comb_w - 1) * comb_cols bits * dbl_muls)
  + ((size - batch_comb_w) * add_muls)
  + (size * normalize_muls) + inv_muls f

let comb_pays f ~uses bits =
  comb_build_muls f bits + (uses * comb_walk_muls bits)
  < ladder_table_muls + (uses * ladder_walk_muls bits)

(* to group a batch's jobs by base; a base that recurs is mostly the
   same value, so physical equality settles most lookups *)
module Point_tbl = Hashtbl.Make (struct
  type t = point

  let equal a b = a == b || equal a b
  let hash (p : point) = Hashtbl.hash p.Jm.x
end)

let mul_batch f ?(combs = []) jobs =
  Array.iter
    (fun (k, _) -> if Bigint.sign k < 0 then invalid_arg "Curve.mul_batch: negative scalar")
    jobs;
  let ctx = Field.mont_ctx f in
  let s = Jm.scratch ctx in
  (* each base's jobs, latest first *)
  let groups = Point_tbl.create 16 in
  Array.iteri
    (fun i (_, base) ->
      match Point_tbl.find_opt groups base with
      | Some js -> js := i :: !js
      | None -> Point_tbl.add groups base (ref [ i ]))
    jobs;
  let out = Array.make (Array.length jobs) (Jm.infinity ctx) in
  Point_tbl.iter
    (fun base js ->
      let group = !js in
      let bits = List.fold_left (fun m i -> Stdlib.max m (Bigint.numbits (fst jobs.(i)))) 0 group in
      if bits > 0 && not (is_infinity base) then begin
        let walk =
          match List.find_opt (fun c -> equal c.Comb.base base && bits <= c.w * c.cols) combs with
          | Some c -> Comb.walk ctx s c
          | None when comb_pays f ~uses:(List.length group) bits ->
            Comb.walk ctx s (Comb.make f ~w:batch_comb_w ~bits base)
          | None -> ladder_jm ctx s (small_multiples ctx s base)
        in
        List.iter (fun i -> out.(i) <- walk (fst jobs.(i))) group
      end)
    groups;
  to_points ctx out

let point_bytes f = Field.element_bytes f + 1

(* The byte boundary: coordinates leave and enter Montgomery form here. *)
let to_bytes f p =
  if is_infinity p then String.make (point_bytes f) '\xff'
  else begin
    let ctx = Field.mont_ctx f in
    let x, y = mont_coords p in
    Field.to_bytes f (Mont.to_bigint ctx x)
    ^ String.make 1 (if Bigint.is_even (Mont.to_bigint ctx y) then '\x00' else '\x01')
  end

let of_bytes f s =
  if String.length s <> point_bytes f then None
  else if String.for_all (fun c -> c = '\xff') s then Some infinity
  else begin
    let n = Field.element_bytes f in
    match s.[n] with
    | '\x00' | '\x01' -> begin
      match Field.of_bytes_opt f (String.sub s 0 n) with
      | None -> None
      | Some x ->
        let ctx = Field.mont_ctx f in
        let x = Mont.of_bigint ctx x in
        let rhs = Mont.add ctx (Mont.mul ctx (Mont.sqr ctx x) x) (Mont.one ctx) in
        (match Mont.sqrt ctx rhs with
         | None -> None
         | Some y ->
           let odd = not (Bigint.is_even (Mont.to_bigint ctx y)) in
           let want_odd = s.[n] = '\x01' in
           (* −0 = 0 keeps its parity: (x, 0) has only the even encoding *)
           if want_odd && Mont.is_zero y then None
           else begin
             if odd <> want_odd then Mont.neg_into ctx y y;
             Some { Jm.x; y; z = Mont.one ctx }
           end)
    end
    | _ -> None
  end
