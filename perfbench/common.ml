(* Result records and measurement helpers shared by the workloads. *)

module Tel = Alpenhorn_telemetry.Telemetry
module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Pairing = Alpenhorn_pairing.Pairing

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** by name; units live in the metric tables *)
}

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2) else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let now = Unix.gettimeofday

(* Closed loop: [f] back to back until [seconds] have passed and at least
   [min] runs are in; results in run order. *)
let repeat ~seconds ~min f =
  let t_end = now () +. seconds in
  let rec go acc k =
    if k >= min && now () >= t_end then List.rev acc else go (f () :: acc) (k + 1)
  in
  go [] 0

(* [repeat] over two variants, alternating, so drift during the run (heap
   growth, a noisy neighbour) falls on both alike. One untimed warm-up of
   each comes first (the heap grows to its working size there), then
   [started ()]. *)
let alternate ~started ~seconds ~min f g =
  ignore (f ());
  ignore (g ());
  started ();
  let both =
    repeat ~seconds ~min (fun () ->
        let a = f () in
        (a, g ()))
  in
  (List.map fst both, List.map snd both)

(* Minor and major collections, counted over metered calls. *)
type gc_meter = { mutable minor : int; mutable major : int }

let gc_meter () = { minor = 0; major = 0 }

let gc_reset m =
  m.minor <- 0;
  m.major <- 0

(* The collections [settle] forced, which no meter counts. *)
let forced = gc_meter ()

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections - forced.minor, s.Gc.major_collections - forced.major)

(* Finish all pending major-heap work, outside any timed window. *)
let settle () =
  let s0 = Gc.quick_stat () in
  Gc.full_major ();
  let s1 = Gc.quick_stat () in
  forced.minor <- forced.minor + s1.Gc.minor_collections - s0.Gc.minor_collections;
  forced.major <- forced.major + s1.Gc.major_collections - s0.Gc.major_collections

let gc_metered m f =
  let minor0, major0 = gc_counts () in
  let v = f () in
  let minor1, major1 = gc_counts () in
  m.minor <- m.minor + minor1 - minor0;
  m.major <- m.major + major1 - major0;
  v

(* ---- host speed ----

   The host's core is shared: in episodes of seconds to minutes another
   tenant's work on it slows ours by up to 1.7x, and wall times of the same
   code drift between runs by more than any useful bound. Every timed
   window is therefore bracketed by runs of a fixed reference workload that
   uses none of the repository's code, and reported at the speed at which
   the reference takes [nominal_reference_s]: the window's wall time times
   [nominal_reference_s] over the mean of the reference runs before and
   after it.

   The reference stays inside the core (registers and L1: three arrays of
   a few hundred bytes, no other allocation), because that is the contention
   the rounds feel: on the reference host, a random walk over an 8 MB table
   also slows when other cores load the shared cache, which the rounds
   barely notice, and it made the scaled times noisier than the raw ones.
   It mixes the two kinds of core-local work, which slow by different
   amounts: about 3/4 of its time is 30-bit limb multiplication (loads,
   multiplies and stores in L1, as in field arithmetic), which slows by
   about twice as much as a round; the rest is an xorshift chain in
   registers, which slows by about half as much. Scaled by this mix, the
   median of 10-15 round pairs of the same code spread 0.02-0.06 across a
   noisy sitting (interquartile range / median) against 0.14-0.28 raw;
   scaled by either part alone, up to 0.07 and 0.14. *)

let nominal_reference_s = 0.02

let reference_work () =
  let a = Array.init 16 (fun i -> ((i * 7919) + 13) land 0x3FFFFFFF)
  and b = Array.init 16 (fun i -> ((i * 104729) + 7) land 0x3FFFFFFF)
  and c = Array.make 32 0 in
  for _ = 1 to 28_000 do
    Array.fill c 0 32 0;
    for i = 0 to 15 do
      let carry = ref 0 in
      for j = 0 to 15 do
        let t = c.(i + j) + (a.(i) * b.(j)) + !carry in
        c.(i + j) <- t land 0x3FFFFFFF;
        carry := t lsr 30
      done;
      c.(i + 16) <- !carry
    done;
    a.(0) <- c.(5)
  done;
  let x = ref c.(7) and acc = ref 0 in
  for _ = 1 to 1_400_000 do
    x := !x lxor ((!x lsl 13) land 0x3FFFFFFFFFFF);
    x := !x lxor (!x lsr 7);
    x := !x lxor ((!x lsl 17) land 0x3FFFFFFFFFFF);
    acc := (!acc * 31) + !x + (!acc lsr 11)
  done;
  !acc

(* Seconds one reference run takes now. *)
let reference () =
  let t0 = now () in
  ignore (Sys.opaque_identity (reference_work ()));
  now () -. t0

(* One timed window: its wall time, the same at the reference speed, the
   mean of the reference runs around it, and the words allocated in it. *)
type window = { wall_s : float; scaled_s : float; reference_s : float; words : float }

(* [f ()] as a timed window, started with no major-heap work pending
   ([settle]), so a window pays for the collection work its own allocation
   causes and not for the debt an earlier window left behind, which
   otherwise lands on whichever round the GC's pacing picks. *)
let timed f =
  settle ();
  let before = reference () in
  let w0 = Spans.words () in
  let t0 = now () in
  let v = f () in
  let wall_s = now () -. t0 in
  let words = Spans.words () -. w0 in
  let reference_s = (before +. reference ()) /. 2.0 in
  (v, { wall_s; scaled_s = wall_s *. nominal_reference_s /. reference_s; reference_s; words })

(* Set up [times] times, keeping only the last set-up; every earlier one
   is disposed of (and its memory collected) before the next starts, so
   peak heap reflects one set-up. Returns the median set-up time, at the
   reference speed, and the kept value. *)
let set_up_median ~times ~dispose f =
  let rec go k acc =
    Gc.compact ();
    let v, w = timed f in
    Printf.eprintf "set-up %d: %.3f s, %.3f s at reference speed\n%!" (k + 1) w.wall_s w.scaled_s;
    if k + 1 >= times then (median (w.scaled_s :: acc), v)
    else begin
      dispose v;
      go (k + 1) (w.scaled_s :: acc)
    end
  in
  go 0 []

let top_heap_words () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words

let gc_metrics m ~pairs =
  let per x = float_of_int x /. float_of_int pairs in
  [ ("gc.minor_collections", per m.minor); ("gc.major_collections", per m.major) ]

let mont_muls () = float_of_int (Tel.Counter.value (Tel.Counter.v Tel.default "pairing.mont_mul"))

(* Direct [Pairing.pair] calls on a fixed pair of points: median time per
   call, words allocated per call, and Montgomery multiplications per call
   from the library's own counter. *)
let pairing_probe params ~calls =
  let rng = Drbg.create ~seed:"perfbench-pairing" in
  let point () = Params.mul_g params (Drbg.bigint_below rng params.Params.q) in
  let a = point () and b = point () in
  ignore (Pairing.pair params a b);
  let m0 = mont_muls () and w0 = Spans.words () in
  let times =
    List.init calls (fun _ ->
        let t0 = now () in
        ignore (Pairing.pair params a b);
        now () -. t0)
  in
  let per x = x /. float_of_int calls in
  [
    ("pairing.pair_us", median times *. 1e6);
    ("pairing.pair_kwords", per (Spans.words () -. w0) /. 1e3);
    ("pairing.mont_muls", per (mont_muls () -. m0));
  ]

(* Per-layer self seconds and words of a traced run, per round pair. *)
let layer_metrics tr ~pairs ~seconds ~mwords =
  let per x = x /. float_of_int pairs in
  List.map (fun (metric, span) -> (metric, per (Spans.self_s tr span))) seconds
  @ List.map (fun (metric, span) -> (metric, per (Spans.self_words tr span) /. 1e6)) mwords
