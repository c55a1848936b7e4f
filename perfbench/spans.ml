(* Outside-in layer spans for the traced run.

   The benchmark wraps every call it makes into a layer's public function
   in [span]; nested spans (an extraction inside a client's key
   collection, a noise callback inside a mixer hop) form a stack. A span's
   self time and self allocation are its own duration and allocated words
   minus those of the spans nested directly inside it, so the per-layer
   figures add up to the covered share of the round without double
   counting. Spans are aggregated per name in memory; nothing is written
   while a round runs. A tracer records only while [traced] runs; at other
   times [span] just calls its function, so the same driver runs traced and
   untraced. *)

type frame = {
  name : string;
  t0 : float;
  w0 : float;
  mutable child_s : float;
  mutable child_w : float;
}

type total = { mutable self_s : float; mutable self_w : float }

type t = { mutable on : bool; mutable stack : frame list; totals : (string, total) Hashtbl.t }

let create () = { on = false; stack = []; totals = Hashtbl.create 32 }

(* Words allocated by this domain so far: minor allocations plus direct
   major allocations (promotions are already counted as minor words). *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let total t name =
  match Hashtbl.find_opt t.totals name with
  | Some x -> x
  | None ->
    let x = { self_s = 0.0; self_w = 0.0 } in
    Hashtbl.replace t.totals name x;
    x

let close t fr =
  let dur = Unix.gettimeofday () -. fr.t0 and w = words () -. fr.w0 in
  t.stack <- List.tl t.stack;
  let x = total t fr.name in
  x.self_s <- x.self_s +. (dur -. fr.child_s);
  x.self_w <- x.self_w +. (w -. fr.child_w);
  match t.stack with
  | parent :: _ ->
    parent.child_s <- parent.child_s +. dur;
    parent.child_w <- parent.child_w +. w
  | [] -> ()

let span t name f =
  if not t.on then f ()
  else begin
    let fr = { name; t0 = Unix.gettimeofday (); w0 = words (); child_s = 0.0; child_w = 0.0 } in
    t.stack <- fr :: t.stack;
    Fun.protect ~finally:(fun () -> close t fr) f
  end

(* [f ()] with [t] recording. *)
let traced t f =
  t.on <- true;
  Fun.protect ~finally:(fun () -> t.on <- false) f

let self_s t name = match Hashtbl.find_opt t.totals name with Some x -> x.self_s | None -> 0.0
let self_words t name = match Hashtbl.find_opt t.totals name with Some x -> x.self_w | None -> 0.0
let covered_s t = Hashtbl.fold (fun _ x acc -> acc +. x.self_s) t.totals 0.0
let reset t = Hashtbl.reset t.totals
