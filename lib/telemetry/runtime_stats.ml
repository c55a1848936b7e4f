(* Runtime/GC sampling: collection and allocation-counter deltas ->
   counters, heap levels -> gauges, and a forced-minor pause probe. No
   Gc.Memprof, no dependencies beyond Unix for the wall clock.

   The pause probe is deliberately honest about what it measures: a
   forced minor collection is a real stop-the-world evacuation of
   whatever the minor heap currently holds, so the observed duration is a
   genuine pause the program would have paid shortly anyway — we only
   choose the moment. It under-reports the worst case when the probe
   fires on a nearly-empty minor heap; the max over many samples
   converges on the true pause ceiling, which is what the SLO rule
   bounds. *)

module Tel = Telemetry

(* One word counter. [Gc.quick_stat]'s word counts cover the whole
   program, but only as of the last minor collection (OCaml 5.1.1: 1 000
   cells consed with no collection read 0 words; a direct major
   allocation shows only after a major slice and the next collection).
   The calling domain's own counts ([Gc.minor_words], [Gc.counters]) are
   current but cover that domain alone. A sample adds the sampling
   domain's own words since that domain's previous sample, plus the
   program-wide growth beyond the own words already added: [seen] is the
   largest program-wide reading so far, [ahead] the own words counted
   that it may not contain yet. Readings of two domains are never
   diffed. *)
type words = { c : Tel.Counter.t; mutable seen : float; mutable ahead : float }

(* A domain's own minor and major words at its previous sample. *)
type own = { mutable own_minor : float; mutable own_major : float }

type t = {
  reg : Tel.registry;
  mu : Mutex.t; (* [sample] runs from both the orchestrator and the scrape domain *)
  mutable prev : Gc.stat;
  own : own Domain.DLS.key;
  mutable last_probe : float; (* wall time of the last pause probe *)
  min_probe_interval : float;
  c_minor : Tel.Counter.t;
  c_major : Tel.Counter.t;
  c_compact : Tel.Counter.t;
  c_forced : Tel.Counter.t;
  w_minor : words;
  w_promoted : words;
  w_major : words;
  g_heap : Tel.Gauge.t;
  g_top_heap : Tel.Gauge.t;
  g_stack : Tel.Gauge.t;
  g_live : Tel.Gauge.t;
  g_free : Tel.Gauge.t;
  g_max_pause : Tel.Gauge.t;
  h_pause : Tel.Histogram.t;
}

let own_words () =
  let _, _, major = Gc.counters () in
  { own_minor = Gc.minor_words (); own_major = major }

let install ?(registry = Tel.default) ?(min_probe_interval = 0.5) () =
  let reg = registry in
  let s = Gc.quick_stat () in
  let words name seen = { c = Tel.Counter.v reg name; seen; ahead = 0.0 } in
  let t =
    {
      reg;
      mu = Mutex.create ();
      prev = s;
      own = Domain.DLS.new_key own_words;
      last_probe = 0.0;
      min_probe_interval;
      c_minor = Tel.Counter.v reg "runtime.gc.minor_collections";
      c_major = Tel.Counter.v reg "runtime.gc.major_collections";
      c_compact = Tel.Counter.v reg "runtime.gc.compactions";
      c_forced = Tel.Counter.v reg "runtime.gc.forced_major_collections";
      w_minor = words "runtime.alloc.minor_words" s.Gc.minor_words;
      w_promoted = words "runtime.alloc.promoted_words" s.Gc.promoted_words;
      w_major = words "runtime.alloc.major_words" s.Gc.major_words;
      g_heap = Tel.Gauge.v reg "runtime.heap_words";
      g_top_heap = Tel.Gauge.v reg "runtime.top_heap_words";
      g_stack = Tel.Gauge.v reg "runtime.stack_words";
      g_live = Tel.Gauge.v reg "runtime.live_words";
      g_free = Tel.Gauge.v reg "runtime.free_words";
      g_max_pause = Tel.Gauge.v reg "runtime.gc.max_pause_seconds";
      h_pause = Tel.Histogram.v reg "runtime.gc.pause_seconds";
    }
  in
  (* the installing domain's own counts start here; any other domain's
     start at its first sample *)
  ignore (Domain.DLS.get t.own);
  t

(* Word counts arrive as floats; saturate to int. *)
let to_words d =
  if d <= 0.0 then 0 else if d >= float_of_int max_int then max_int else int_of_float d

(* [program] is this sample's program-wide reading, [own] the sampling
   domain's words since its previous sample. The counter stays at
   [seen + ahead] (from install on): program-wide growth first pays off
   the own words counted ahead of it, so no word is counted twice. *)
let count w ~program ~own =
  let grown = Float.max 0.0 (program -. w.seen) in
  w.seen <- Float.max w.seen program;
  let ahead = w.ahead +. own in
  w.ahead <- Float.max 0.0 (ahead -. grown);
  Tel.Counter.add w.c (to_words (own +. Float.max 0.0 (grown -. ahead)))

let probe_pause t now =
  if now -. t.last_probe >= t.min_probe_interval then begin
    t.last_probe <- now;
    let t0 = Unix.gettimeofday () in
    Gc.minor ();
    let pause = Unix.gettimeofday () -. t0 in
    Tel.Histogram.observe t.h_pause pause;
    (* window max: the gauge is zeroed by snapshot resets, so keep it at
       the largest probe of the current window *)
    if pause > Tel.Gauge.value t.g_max_pause then Tel.Gauge.set t.g_max_pause pause
  end

let sample ?(full = false) t =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) @@ fun () ->
  let s = if full then Gc.stat () else Gc.quick_stat () in
  let p = t.prev in
  t.prev <- s;
  Tel.Counter.add t.c_minor (max 0 (s.Gc.minor_collections - p.Gc.minor_collections));
  Tel.Counter.add t.c_major (max 0 (s.Gc.major_collections - p.Gc.major_collections));
  Tel.Counter.add t.c_compact (max 0 (s.Gc.compactions - p.Gc.compactions));
  Tel.Counter.add t.c_forced
    (max 0 (s.Gc.forced_major_collections - p.Gc.forced_major_collections));
  let o = Domain.DLS.get t.own in
  let now = own_words () in
  count t.w_minor ~program:s.Gc.minor_words ~own:(now.own_minor -. o.own_minor);
  count t.w_major ~program:s.Gc.major_words ~own:(now.own_major -. o.own_major);
  (* only a collection promotes, and it stops every domain and brings
     the program-wide count up to date *)
  count t.w_promoted ~program:s.Gc.promoted_words ~own:0.0;
  o.own_minor <- now.own_minor;
  o.own_major <- now.own_major;
  Tel.Gauge.set t.g_heap (float_of_int s.Gc.heap_words);
  Tel.Gauge.set t.g_top_heap (float_of_int s.Gc.top_heap_words);
  Tel.Gauge.set t.g_stack (float_of_int s.Gc.stack_size);
  if full then begin
    Tel.Gauge.set t.g_live (float_of_int s.Gc.live_words);
    Tel.Gauge.set t.g_free (float_of_int s.Gc.free_words)
  end;
  probe_pause t (Unix.gettimeofday ())

(* Process-wide sampler on the default registry, installed on first use.
   Guarded by a mutex rather than Lazy: first use can race between the
   orchestrating domain and a scrape domain. *)
let default_mu = Mutex.create ()
let default_ref : t option ref = ref None

let get_default () =
  Mutex.lock default_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock default_mu) @@ fun () ->
  match !default_ref with
  | Some t -> t
  | None ->
    let t = install () in
    default_ref := Some t;
    t
