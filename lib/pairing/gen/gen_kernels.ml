(* Prints [Mont_kernels]: the loops of mont.ml's Montgomery multiplication,
   addition, subtraction and small-constant multiplication fully unrolled
   for each limb count given on the command line, or with [-mli] first,
   their interface. lib/pairing/dune runs it at build time with the limb
   counts of the two curves, 3 (the test curve's 72-bit p) and 8 (the
   production curve's 237-bit p).

   Every limb index is a constant in the output, so there is no loop
   control; the accumulator and the intermediate limbs are let-bound
   locals, so there is no accumulator array; and a final reduction is one
   borrow pass over [t − p] that keeps the difference exactly when the top
   word covers the borrow, instead of a compare and a second subtraction.
   Each kernel reads all of its inputs before it writes [dst], so [dst]
   may be any of them. Limbs are 30 bits in 63-bit native ints: mont.ml
   gives the bounds that keep every step from overflowing. *)

let n_of_arg s =
  match int_of_string_opt s with
  | Some n when n >= 2 -> n
  | _ -> invalid_arg ("gen_kernels: limb count must be an integer >= 2: " ^ s)

let line fmt = Printf.printf (fmt ^^ "\n")
let get arr i = Printf.sprintf "Array.unsafe_get %s %d" arr i

(* the carry (lsr) or borrow (asr) out of the previous limb's [s]; none
   into limb 0 *)
let carry_in op j = if j = 0 then "" else Printf.sprintf " + (s %s 30)" op

let emit_store n value =
  for j = 0 to n - 1 do
    line "  Array.unsafe_set dst %d %s;" j (value j)
  done

(* d0..d(n−1) ← t0..t(n−1) − p; afterwards [top + (s asr 30) >= 0]
   holds exactly when the top word [top] of t covers the final borrow,
   that is when t ≥ p *)
let emit_minus_p n =
  for j = 0 to n - 1 do
    line "  let s = t%d - %s%s in" j (get "p" j) (carry_in "asr" j);
    line "  let d%d = s land mask in" j
  done

(* t (below 2p) reduced into dst by a branch, for the kernels where t ≥ p
   is rare *)
let emit_reduce n ~top =
  emit_minus_p n;
  line "  if %s + (s asr 30) >= 0 then begin" top;
  emit_store n (Printf.sprintf "d%d");
  line "  end";
  line "  else begin";
  emit_store n (Printf.sprintf "t%d");
  line "  end";
  line ""

(* FIOS: outer step i adds a_i·b and m·p (m chosen to zero the low limb)
   into t and shifts t down one limb; t starts at zero, so step 0 has no
   t terms. t ends below 2p, so t_n ≤ 1. *)
let emit_mul n =
  line "let mul%d (p : int array) p0inv (dst : int array) (a : int array) (b : int array) =" n;
  for i = 0 to n - 1 do
    let t j = if i = 0 then "" else Printf.sprintf "t%d + " j in
    line "  let ai = %s in" (get "a" i);
    line "  let s = %s(ai * %s) in" (t 0) (get "b" 0);
    line "  let m = s * p0inv land mask in";
    line "  let c = (s + (m * %s)) lsr 30 in" (get "p" 0);
    for j = 1 to n - 1 do
      line "  let s = %s(ai * %s) + (m * %s) + c in" (t j) (get "b" j) (get "p" j);
      line "  let t%d = s land mask and c = s lsr 30 in" (j - 1)
    done;
    if i = 0 then line "  let t%d = c land mask and t%d = c lsr 30 in" (n - 1) n
    else begin
      line "  let s = t%d + c in" n;
      line "  let t%d = s land mask and t%d = s lsr 30 in" (n - 1) n
    end
  done;
  emit_reduce n ~top:(Printf.sprintf "t%d" n)

(* t = a + b < 2p. Whether it reaches p is a coin toss, so the result is
   selected with a mask rather than a branch: [keep_t] is all ones exactly
   when the borrow of t − p exceeds the carry out of a + b *)
let emit_add n =
  line "let add%d (p : int array) (dst : int array) (a : int array) (b : int array) =" n;
  for j = 0 to n - 1 do
    line "  let s = %s + %s%s in" (get "a" j) (get "b" j) (carry_in "lsr" j);
    line "  let t%d = s land mask in" j
  done;
  line "  let c = s lsr 30 in";
  emit_minus_p n;
  line "  let keep_t = (c + (s asr 30)) asr 1 in";
  emit_store n (fun j -> Printf.sprintf "(d%d lxor ((d%d lxor t%d) land keep_t))" j j j);
  line "  ()";
  line ""

(* a − b, then p added back under the mask of the final borrow; the carry
   out of that addition cancels the borrow *)
let emit_sub n =
  line "let sub%d (p : int array) (dst : int array) (a : int array) (b : int array) =" n;
  for j = 0 to n - 1 do
    line "  let s = %s - %s%s in" (get "a" j) (get "b" j) (carry_in "asr" j);
    line "  let d%d = s land mask in" j
  done;
  line "  let borrowed = s asr 30 in";
  for j = 0 to n - 1 do
    line "  let s = d%d + (%s land borrowed)%s in" j (get "p" j) (carry_in "lsr" j);
    line "  Array.unsafe_set dst %d (s land mask);" j
  done;
  line "  ()";
  line ""

(* v = a·k, then t = v − q·p with q from mont.ml's [quotient_estimate]
   (⌊v/p⌋ or one less), so t < 2p and one reduction finishes *)
let emit_mul_small n =
  line "let mul_small%d (p : int array) top_bits p_recip (dst : int array) (a : int array) k =" n;
  for j = 0 to n - 1 do
    line "  let s = (%s * k)%s in" (get "a" j) (carry_in "lsr" j);
    line "  let v%d = s land mask in" j
  done;
  line "  let v%d = s lsr 30 in" n;
  line "  let top = (v%d lsl (60 - top_bits)) lor (v%d lsl (30 - top_bits)) lor (v%d lsr top_bits) in"
    n (n - 1) (n - 2);
  line "  let q = ((top lsr 2) * p_recip) lsr 56 in";
  for j = 0 to n - 1 do
    line "  let s = v%d - (q * %s)%s in" j (get "p" j) (carry_in "asr" j);
    line "  let t%d = s land mask in" j
  done;
  line "  let t%d = v%d + (s asr 30) in" n n;
  emit_reduce n ~top:(Printf.sprintf "t%d" n)

(* the interface, so the generated module carries one like every other
   library module *)
let emit_mli sizes =
  line "(** Straight-line Montgomery kernels for %s limbs, behind {!Mont}, which"
    (String.concat " and " (List.map string_of_int sizes));
  line "    passes each its context's constants. Generated by";
  line "    lib/pairing/gen/gen_kernels.ml; do not edit. *)";
  List.iter
    (fun n ->
      line "";
      line "val mul%d : int array -> int -> int array -> int array -> int array -> unit" n;
      line "val add%d : int array -> int array -> int array -> int array -> unit" n;
      line "val sub%d : int array -> int array -> int array -> int array -> unit" n;
      line "val mul_small%d : int array -> int -> int -> int array -> int array -> int -> unit" n)
    sizes

let emit_ml sizes =
  line "(* Generated by lib/pairing/gen/gen_kernels.ml; do not edit. *)";
  line "";
  line "let mask = (1 lsl 30) - 1";
  line "";
  List.iter
    (fun n ->
      emit_mul n;
      emit_add n;
      emit_sub n;
      emit_mul_small n)
    sizes

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "-mli" :: sizes -> emit_mli (List.map n_of_arg sizes)
  | sizes -> emit_ml (List.map n_of_arg sizes)
