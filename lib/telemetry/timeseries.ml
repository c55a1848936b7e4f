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

type sample = { ts : float; snap : Tel.Snapshot.t }

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

(* the ring keeps the snapshot itself; spans are the round's trace, not
   history, and would pin every span of every round in memory *)
let sample ~ts (snap : Tel.Snapshot.t) = { ts; snap = { snap with spans = [] } }

let push_unlocked t s =
  t.ring.(t.head) <- Some s;
  t.head <- (t.head + 1) mod t.cap;
  if t.len < t.cap then t.len <- t.len + 1

(* A sample older than the newest: [record_snapshot] rejects it, while
   [record] reads it as a restarted registry clock (a new DES run) and
   begins a new ring epoch — windows must not mix two timelines. *)
let push t s ~restart =
  locked t (fun () ->
      (match newest_unlocked t with
      | Some prev when s.ts < prev.ts ->
        if not restart then
          invalid_arg
            (Printf.sprintf "Timeseries: sample at %g precedes newest sample at %g" s.ts prev.ts);
        Array.fill t.ring 0 t.cap None;
        t.head <- 0;
        t.len <- 0
      | _ -> ());
      push_unlocked t s)

let record t =
  match t.reg with
  | None -> invalid_arg "Timeseries.record: detached ring (use record_snapshot)"
  | Some reg ->
    push t (sample ~ts:(Tel.now reg) (Tel.Snapshot.take_metrics reg)) ~restart:true

let record_snapshot t ~ts snap = push t (sample ~ts snap) ~restart:false

(* ---- one sample's values, read by the Snapshot selection rule ---- *)

(* the selected gauges' max *)
let gauge s key =
  match Tel.Snapshot.gauges s.snap key with
  | [] -> None
  | v :: vs -> Some (List.fold_left Float.max v vs)

let kind s key =
  if Tel.Snapshot.counter s.snap key <> None then Some `Counter
  else if gauge s key <> None then Some `Gauge
  else if Tel.Snapshot.histogram s.snap key <> None then Some `Hist
  else None

(* trailing-window slice, oldest first *)
let window_samples t window =
  locked t (fun () ->
      let all = samples_unlocked t in
      match (window, newest_unlocked t) with
      | None, _ | _, None -> all
      | Some w, Some newest -> List.filter (fun s -> s.ts >= newest.ts -. w) all)

let mem t key = List.exists (fun s -> kind s key <> None) (samples t)

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
            match (Tel.Snapshot.counter s1.snap name, Tel.Snapshot.counter s2.snap name) with
            | Some c1, Some c2 -> acc + max 0 (c2 - c1)
            | None, Some c2 -> acc + max 0 c2 (* key appeared mid-window *)
            | _ -> acc)
          0 (pairs all)
      in
      float_of_int total /. elapsed

let gauge_stats t ?window name =
  List.fold_left
    (fun acc s ->
      match gauge s name with
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
      match Tel.Snapshot.histogram s2.snap name with
      | None -> acc
      | Some h2 -> Tel.Histogram.merge acc (hist_delta (Tel.Snapshot.histogram s1.snap name) h2))
    Tel.Histogram.empty (pairs all)

let quantile t ?window name q = Tel.Histogram.quantile (hist_window t ?window name) q

let points t ?window name =
  let all = window_samples t window in
  (* kind from the newest sample that carries the key *)
  match List.fold_left (fun acc s -> Option.value (kind s name) ~default:acc) `Absent all with
  | `Absent -> []
  | `Gauge ->
    List.filter_map (fun s -> Option.map (fun v -> (s.ts, v)) (gauge s name)) all
  | `Counter ->
    List.filter_map
      (fun (s1, s2) ->
        match (Tel.Snapshot.counter s1.snap name, Tel.Snapshot.counter s2.snap name) with
        | Some c1, Some c2 ->
          let dt = s2.ts -. s1.ts in
          Some (s2.ts, if dt > 0.0 then float_of_int (max 0 (c2 - c1)) /. dt else 0.0)
        | _ -> None)
      (pairs all)
  | `Hist ->
    List.filter_map
      (fun (s1, s2) ->
        match Tel.Snapshot.histogram s2.snap name with
        | None -> None
        | Some h2 ->
          let delta = hist_delta (Tel.Snapshot.histogram s1.snap name) h2 in
          Some (s2.ts, float_of_int delta.Tel.Histogram.count))
      (pairs all)

(* ---- JSONL round-trip: one snapshot document per line ---- *)

(* the timestamp rides beside the document, which Snapshot.of_json
   unwraps from its "telemetry" member *)
let to_jsonl t =
  String.concat ""
    (List.map
       (fun s ->
         Printf.sprintf {|{"ts":%s,"telemetry":%s}|}
           (Tel.Json.to_string (Tel.Json.Num s.ts))
           (Tel.Snapshot.to_json s.snap)
         ^ "\n")
       (samples t))

let of_jsonl text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let rec go acc i = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let decoded j = (Tel.Json.get "ts" Tel.Json.to_num j, Tel.Snapshot.of_json j) in
      match Option.map decoded (Tel.Json.parse line) with
      | Some (Some ts, Ok snap) -> go ({ ts; snap } :: acc) (i + 1) rest
      | _ -> Error (Printf.sprintf "line %d: not a time-series sample" i))
  in
  match go [] 1 lines with
  | Error _ as e -> e
  | Ok samples ->
    let t = create_detached ~capacity:(max 2 (List.length samples)) () in
    List.iter (fun s -> locked t (fun () -> push_unlocked t s)) samples;
    Ok t
