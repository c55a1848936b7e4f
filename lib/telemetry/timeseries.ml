(* Time-series ring: cumulative samples in, windowed deltas out.

   Storage is cumulative (each sample is a full snapshot of the
   registry); every query works on consecutive-pair deltas clamped at
   zero. The clamp is what makes the ring indifferent to
   [Snapshot.take ~reset:true] elsewhere in the process: a reset shows up
   as one negative delta, which the clamp maps to "no increase in that
   interval" — observations recorded after the reset are unaffected.

   A mutex guards the ring: the orchestrating domain records at round
   close while the metrics listener's domain answers /series queries. *)

module Tel = Telemetry

type sample = {
  ts : float;
  counters : (string * int) list; (* key = name or name{k=v,...}, sorted *)
  gauges : (string * float) list;
  hists : (string * Tel.Histogram.snap) list;
}

type t = {
  reg : Tel.registry option;
  cap : int;
  ring : sample option array;
  mutable head : int; (* next write slot *)
  mutable len : int;
  mu : Mutex.t;
}

let make ?(capacity = 720) reg =
  if capacity < 2 then invalid_arg "Timeseries.create: capacity must be >= 2";
  { reg; cap = capacity; ring = Array.make capacity None; head = 0; len = 0; mu = Mutex.create () }

let create ?capacity reg = make ?capacity (Some reg)
let create_detached ?capacity () = make ?capacity None
let default = create Tel.default

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let capacity t = t.cap
let length t = locked t (fun () -> t.len)

let clear t =
  locked t (fun () ->
      Array.fill t.ring 0 t.cap None;
      t.head <- 0;
      t.len <- 0)

(* oldest-first list of retained samples; call under the lock *)
let samples_unlocked t =
  let out = ref [] in
  for i = t.len downto 1 do
    let idx = (t.head - i + (t.cap * 2)) mod t.cap in
    match t.ring.(idx) with Some s -> out := s :: !out | None -> ()
  done;
  List.rev !out

let newest_unlocked t =
  if t.len = 0 then None else t.ring.((t.head - 1 + t.cap) mod t.cap)

let samples t = locked t (fun () -> samples_unlocked t)
let last_ts t = locked t (fun () -> Option.map (fun s -> s.ts) (newest_unlocked t))

let span_seconds t =
  locked t (fun () ->
      match samples_unlocked t with
      | [] | [ _ ] -> 0.0
      | first :: _ as all -> (List.nth all (List.length all - 1)).ts -. first.ts)

let key name labels = Tel.metric_key name (List.sort compare labels)

let sample_of_snapshot ~ts (snap : Tel.Snapshot.t) =
  {
    ts;
    counters = List.map (fun (n, l, v) -> (key n l, v)) snap.Tel.Snapshot.counters;
    gauges = List.map (fun (n, l, v) -> (key n l, v)) snap.Tel.Snapshot.gauges;
    hists = List.map (fun (n, l, s) -> (key n l, s)) snap.Tel.Snapshot.histograms;
  }

let push_unlocked t s =
  t.ring.(t.head) <- Some s;
  t.head <- (t.head + 1) mod t.cap;
  if t.len < t.cap then t.len <- t.len + 1

let append t s =
  locked t (fun () ->
      (match newest_unlocked t with
      | Some prev when s.ts < prev.ts ->
        invalid_arg
          (Printf.sprintf "Timeseries: sample at %g precedes newest sample at %g" s.ts prev.ts)
      | _ -> ());
      push_unlocked t s)

let record t =
  match t.reg with
  | None -> invalid_arg "Timeseries.record: detached ring (use record_snapshot)"
  | Some reg ->
    let snap = Tel.Snapshot.take reg in
    let s = sample_of_snapshot ~ts:(Tel.now reg) snap in
    (* A backward clock reading means the registry clock was restarted (a
       new DES run): begin a new ring epoch rather than rejecting the
       sample — windows must not mix two simulated timelines. *)
    locked t (fun () ->
        (match newest_unlocked t with
        | Some prev when s.ts < prev.ts ->
          Array.fill t.ring 0 t.cap None;
          t.head <- 0;
          t.len <- 0
        | _ -> ());
        push_unlocked t s)

let record_snapshot t ~ts snap = append t (sample_of_snapshot ~ts snap)

(* ---- key matching: exact labeled key, or bare-name label merge ---- *)

let matches ~q k =
  q = k
  || String.length k > String.length q
     && String.sub k 0 (String.length q) = q
     && k.[String.length q] = '{'
     && not (String.contains q '{')

let counter_at s q =
  match List.filter (fun (k, _) -> matches ~q k) s.counters with
  | [] -> None
  | l -> Some (List.fold_left (fun acc (_, v) -> acc + v) 0 l)

let gauge_at s q =
  match List.filter (fun (k, _) -> matches ~q k) s.gauges with
  | [] -> None
  | l -> Some (List.fold_left (fun acc (_, v) -> Float.max acc v) neg_infinity l)

let hist_at s q =
  match List.filter (fun (k, _) -> matches ~q k) s.hists with
  | [] -> None
  | l -> Some (List.fold_left (fun acc (_, h) -> Tel.Histogram.merge acc h) Tel.Histogram.empty l)

(* trailing-window slice, oldest first *)
let window_samples t window =
  locked t (fun () ->
      let all = samples_unlocked t in
      match (window, newest_unlocked t) with
      | None, _ | _, None -> all
      | Some w, Some newest -> List.filter (fun s -> s.ts >= newest.ts -. w) all)

let names t =
  let keys = Hashtbl.create 64 in
  List.iter
    (fun s ->
      List.iter (fun (k, _) -> Hashtbl.replace keys k ()) s.counters;
      List.iter (fun (k, _) -> Hashtbl.replace keys k ()) s.gauges;
      List.iter (fun (k, _) -> Hashtbl.replace keys k ()) s.hists)
    (window_samples t None);
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) keys [])

let rec pairs = function
  | a :: (b :: _ as rest) -> (a, b) :: pairs rest
  | [] | [ _ ] -> []

let rate t ?window name =
  match window_samples t window with
  | [] | [ _ ] -> 0.0
  | first :: _ as all ->
    let last = List.nth all (List.length all - 1) in
    let elapsed = last.ts -. first.ts in
    if elapsed <= 0.0 then 0.0
    else
      let total =
        List.fold_left
          (fun acc (s1, s2) ->
            match (counter_at s1 name, counter_at s2 name) with
            | Some c1, Some c2 -> acc + max 0 (c2 - c1)
            | None, Some c2 -> acc + max 0 c2 (* key appeared mid-window *)
            | _ -> acc)
          0 (pairs all)
      in
      float_of_int total /. elapsed

let gauge_stats t ?window name =
  List.fold_left
    (fun acc s ->
      match gauge_at s name with
      | None -> acc
      | Some v -> (
        match acc with
        | None -> Some (v, v, v)
        | Some (mn, mx, _) -> Some (Float.min mn v, Float.max mx v, v)))
    None (window_samples t window)

(* increment of a histogram between two cumulative states: bucket-wise
   clamped difference; min/max reconstructed at bucket resolution *)
let hist_delta (h1 : Tel.Histogram.snap option) (h2 : Tel.Histogram.snap) =
  let b1 = match h1 with Some h -> h.Tel.Histogram.buckets | None -> [||] in
  let nb = Tel.Histogram.bucket_count in
  let buckets =
    Array.init nb (fun i ->
        let prev = if i < Array.length b1 then b1.(i) else 0 in
        max 0 (h2.Tel.Histogram.buckets.(i) - prev))
  in
  let count = Array.fold_left ( + ) 0 buckets in
  if count = 0 then Tel.Histogram.empty
  else begin
    let sum =
      let s1 = match h1 with Some h -> h.Tel.Histogram.sum | None -> 0.0 in
      Float.max 0.0 (h2.Tel.Histogram.sum -. s1)
    in
    let lo = ref (nb - 1) and hi = ref 0 in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          if i < !lo then lo := i;
          if i > !hi then hi := i
        end)
      buckets;
    {
      Tel.Histogram.count;
      sum;
      min_v = Tel.Histogram.bucket_lower !lo;
      max_v = Tel.Histogram.bucket_lower (!hi + 1);
      buckets;
    }
  end

let hist_window t ?window name =
  let all = window_samples t window in
  List.fold_left
    (fun acc (s1, s2) ->
      match hist_at s2 name with
      | None -> acc
      | Some h2 -> Tel.Histogram.merge acc (hist_delta (hist_at s1 name) h2))
    Tel.Histogram.empty (pairs all)

let quantile t ?window name q = Tel.Histogram.quantile (hist_window t ?window name) q

let points t ?window name =
  let all = window_samples t window in
  (* kind from the newest sample that carries the key *)
  let kind =
    List.fold_left
      (fun acc s ->
        if counter_at s name <> None then `Counter
        else if gauge_at s name <> None then `Gauge
        else if hist_at s name <> None then `Hist
        else acc)
      `Absent all
  in
  match kind with
  | `Absent -> []
  | `Gauge ->
    List.filter_map (fun s -> Option.map (fun v -> (s.ts, v)) (gauge_at s name)) all
  | `Counter ->
    List.filter_map
      (fun (s1, s2) ->
        match (counter_at s1 name, counter_at s2 name) with
        | Some c1, Some c2 ->
          let dt = s2.ts -. s1.ts in
          Some (s2.ts, if dt > 0.0 then float_of_int (max 0 (c2 - c1)) /. dt else 0.0)
        | _ -> None)
      (pairs all)
  | `Hist ->
    List.filter_map
      (fun (s1, s2) ->
        match hist_at s2 name with
        | None -> None
        | Some h2 ->
          Some (s2.ts, float_of_int (hist_delta (hist_at s1 name) h2).Tel.Histogram.count))
      (pairs all)

(* ---- JSONL round-trip ---- *)

let sample_to_json s =
  let fields f l = Tel.Json.Obj (List.map (fun (k, v) -> (k, f v)) l) in
  Tel.Json.(
    to_string
      (Obj
         [
           ("ts", Num s.ts);
           ("counters", fields int s.counters);
           ("gauges", fields (fun v -> Num v) s.gauges);
           ("hists", fields (fun h -> Obj (Tel.Snapshot.histogram_fields h)) s.hists);
         ]))

let to_jsonl t = String.concat "" (List.map (fun s -> sample_to_json s ^ "\n") (samples t))

let sample_of_json j =
  let open Tel.Json in
  let ( let* ) = Option.bind in
  let* ts = get "ts" to_num j in
  let* counters = get "counters" (to_fields to_int) j in
  let* gauges = get "gauges" (to_fields to_num) j in
  let* hists = get "hists" (to_fields Tel.Snapshot.histogram_of_json) j in
  Some { ts; counters; gauges; hists }

let of_jsonl text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let rec go acc i = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match Option.bind (Tel.Json.parse line) sample_of_json with
      | None -> Error (Printf.sprintf "line %d: not a time-series sample" i)
      | Some s -> go (s :: acc) (i + 1) rest)
  in
  match go [] 1 lines with
  | Error _ as e -> e
  | Ok samples ->
    let t = create_detached ~capacity:(max 2 (List.length samples)) () in
    List.iter (fun s -> locked t (fun () -> push_unlocked t s)) samples;
    Ok t
