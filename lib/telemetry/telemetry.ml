(* Domain-safe metrics registry. Hot paths (counter/gauge hits) are lock-free
   atomics on handles resolved once at registration; histograms take a
   per-histogram mutex, and the registry hashtable/span list are guarded by a
   registry mutex consulted by [v], [push_span] and [Snapshot.take]. Clock
   swaps ([set_clock]/[with_clock]) remain single-domain operations: they are
   only ever called from the orchestrating domain between parallel regions. *)

type labels = (string * string) list

let wall_clock = Unix.gettimeofday

(* ---- histogram bucket layout (shared by all histograms) ---- *)

let n_buckets = 64

(* bucket i covers [2^(i-32), 2^(i-31)); <= 2^-32 lands in bucket 0 and
   >= 2^31 in the last — spans ~0.2 ns to ~2e9 in whatever unit is used *)
let bucket_of v =
  if v <= 0.0 || Float.is_nan v then 0
  else begin
    let _, e = Float.frexp v in
    (* v = m * 2^e with m in [0.5, 1), so v in [2^(e-1), 2^e) *)
    let i = e + 31 in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i
  end

let bucket_lower i = Float.ldexp 1.0 (i - 32)

type counter = int Atomic.t
type gauge = float Atomic.t

type histogram = {
  hmu : Mutex.t;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  counts : int array;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type span_rec = {
  sp_name : string;
  sp_labels : labels;
  sp_ts : float;
  sp_dur : float;
  sp_depth : int;
  sp_clock : string;
}

let max_spans = 100_000

type registry = {
  mu : Mutex.t; (* guards metrics table, span list and depth *)
  mutable clock : unit -> float;
  mutable ckind : string;
  mutable epoch : float;
  metrics : (string * labels, metric) Hashtbl.t;
  mutable spans : span_rec list; (* reversed *)
  mutable n_spans : int;
  mutable dropped_spans : int;
  mutable depth : int;
}

let create ?(clock = wall_clock) ?(clock_kind = "wall") () =
  {
    mu = Mutex.create ();
    clock;
    ckind = clock_kind;
    epoch = clock ();
    metrics = Hashtbl.create 64;
    spans = [];
    n_spans = 0;
    dropped_spans = 0;
    depth = 0;
  }

let locked r f =
  Mutex.lock r.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.mu) f

let default = create ()
let now r = r.clock ()
let since_epoch r = r.clock () -. r.epoch
let clock_kind r = r.ckind

let set_clock r ~kind clock =
  r.clock <- clock;
  r.ckind <- kind;
  r.epoch <- clock ()

let with_clock r ~kind clock f =
  let old_clock = r.clock and old_kind = r.ckind and old_epoch = r.epoch in
  set_clock r ~kind clock;
  Fun.protect
    ~finally:(fun () ->
      r.clock <- old_clock;
      r.ckind <- old_kind;
      r.epoch <- old_epoch)
    f

let normalize_labels labels = List.sort_uniq compare labels

let metric_key name = function
  | [] -> name
  | labels -> name ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels) ^ "}"

let find_or_register r ~labels name make select =
  let key = (name, normalize_labels labels) in
  locked r (fun () ->
      match Hashtbl.find_opt r.metrics key with
      | Some m -> begin
        match select m with
        | Some h -> h
        | None ->
          invalid_arg (Printf.sprintf "Telemetry: %S already registered with another kind" name)
      end
      | None ->
        let m, h = make () in
        Hashtbl.replace r.metrics key m;
        h)

module Counter = struct
  type t = counter

  let v r ?(labels = []) name =
    find_or_register r ~labels name
      (fun () ->
        let c = Atomic.make 0 in
        (Counter c, c))
      (function Counter c -> Some c | _ -> None)

  let inc t = Atomic.incr t
  let add t n = ignore (Atomic.fetch_and_add t n)
  let value t = Atomic.get t
end

module Gauge = struct
  type t = gauge

  let v r ?(labels = []) name =
    find_or_register r ~labels name
      (fun () ->
        let g = Atomic.make 0.0 in
        (Gauge g, g))
      (function Gauge g -> Some g | _ -> None)

  let set t x = Atomic.set t x
  let value t = Atomic.get t
end

module Histogram = struct
  type t = histogram

  let bucket_count = n_buckets
  let bucket_of = bucket_of
  let bucket_lower = bucket_lower

  let v r ?(labels = []) name =
    find_or_register r ~labels name
      (fun () ->
        let h =
          {
            hmu = Mutex.create ();
            count = 0;
            sum = 0.0;
            min_v = infinity;
            max_v = neg_infinity;
            counts = Array.make n_buckets 0;
          }
        in
        (Histogram h, h))
      (function Histogram h -> Some h | _ -> None)

  let observe t x =
    Mutex.lock t.hmu;
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x;
    let b = bucket_of x in
    t.counts.(b) <- t.counts.(b) + 1;
    Mutex.unlock t.hmu

  type snap = { count : int; sum : float; min_v : float; max_v : float; buckets : int array }

  let empty =
    { count = 0; sum = 0.0; min_v = infinity; max_v = neg_infinity; buckets = Array.make n_buckets 0 }

  let snapshot (t : t) =
    Mutex.lock t.hmu;
    let s =
      { count = t.count; sum = t.sum; min_v = t.min_v; max_v = t.max_v; buckets = Array.copy t.counts }
    in
    Mutex.unlock t.hmu;
    s

  let merge a b =
    {
      count = a.count + b.count;
      sum = a.sum +. b.sum;
      min_v = Float.min a.min_v b.min_v;
      max_v = Float.max a.max_v b.max_v;
      buckets = Array.init n_buckets (fun i -> a.buckets.(i) + b.buckets.(i));
    }

  let mean s = if s.count = 0 then 0.0 else s.sum /. float_of_int s.count

  let quantile s q =
    if s.count = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let target = q *. float_of_int s.count in
      let clamp v = Float.max s.min_v (Float.min s.max_v v) in
      let rec walk i seen =
        if i >= n_buckets then clamp s.max_v
        else begin
          let c = s.buckets.(i) in
          if float_of_int (seen + c) >= target && c > 0 then begin
            (* interpolate inside bucket i between its bounds *)
            let lo = bucket_lower i and hi = bucket_lower (i + 1) in
            let frac = (target -. float_of_int seen) /. float_of_int c in
            clamp (lo +. (frac *. (hi -. lo)))
          end
          else walk (i + 1) (seen + c)
        end
      in
      walk 0 0
    end
end

(* ---- spans ---- *)

let push_span r sp =
  locked r (fun () ->
      if r.n_spans >= max_spans then r.dropped_spans <- r.dropped_spans + 1
      else begin
        r.spans <- sp :: r.spans;
        r.n_spans <- r.n_spans + 1
      end)

module Span = struct
  (* A span is timed entirely on the clock in effect when it opens: the
     epoch-relative start, the clock function used for the duration and the
     recorded clock kind are all captured at open, so a [set_clock] /
     [with_clock] swap while the span is open cannot mix two timebases
     (regression-tested in test_telemetry.ml). *)
  let with_ r ?(labels = []) name f =
    let labels = normalize_labels labels in
    let clock0 = r.clock and kind0 = r.ckind in
    let t0 = clock0 () in
    let ts_rel = t0 -. r.epoch in
    let depth =
      locked r (fun () ->
          let d = r.depth in
          r.depth <- d + 1;
          d)
    in
    Fun.protect
      ~finally:(fun () ->
        locked r (fun () -> r.depth <- depth);
        push_span r
          {
            sp_name = name;
            sp_labels = labels;
            sp_ts = ts_rel;
            sp_dur = clock0 () -. t0;
            sp_depth = depth;
            sp_clock = kind0;
          })
      f

  let emit r ?(labels = []) ?(depth = 0) ~name ~ts ~dur () =
    push_span r
      {
        sp_name = name;
        sp_labels = normalize_labels labels;
        sp_ts = ts -. r.epoch;
        sp_dur = dur;
        sp_depth = depth;
        sp_clock = r.ckind;
      }
end

(* ---- JSON: the one writer and the strict RFC 8259 reader ---- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let int n = Num (float_of_int n)
  let strings kvs = Obj (List.map (fun (k, v) -> (k, Str v)) kvs)

  (* The fewest significant digits that read back to the same double.
     %.15g already gives that for every value with a decimal of at most
     15 digits (DBL_DIG), so only values that need 16 or 17 print longer.
     JSON has no non-finite numbers: they print as null. *)
  let number f =
    if not (Float.is_finite f) then "null"
    else
      let rec go p =
        let s = Printf.sprintf "%.*g" p f in
        if p = 17 || float_of_string s = f then s else go (p + 1)
      in
      go 15

  let write_string b s =
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when c < ' ' -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let write_seq b l r f xs =
    Buffer.add_char b l;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        f x)
      xs;
    Buffer.add_char b r

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Num f -> Buffer.add_string b (number f)
    | Str s -> write_string b s
    | Arr vs -> write_seq b '[' ']' (write b) vs
    | Obj kvs ->
      write_seq b '{' '}'
        (fun (k, v) ->
          write_string b k;
          Buffer.add_char b ':';
          write b v)
        kvs

  let to_string v =
    let b = Buffer.create 1024 in
    write b v;
    Buffer.contents b

  exception Bad

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let expect c = if peek () = Some c then advance () else raise Bad in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let literal lit =
      String.iter (fun c -> expect c) lit
    in
    let digits () =
      let start = !pos in
      let rec go () =
        match peek () with
        | Some ('0' .. '9') ->
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if !pos = start then raise Bad
    in
    let int_part () =
      (* RFC 8259: a leading zero may not be followed by more digits *)
      match peek () with
      | Some '0' -> (
        advance ();
        match peek () with Some ('0' .. '9') -> raise Bad | _ -> ())
      | Some ('1' .. '9') -> digits ()
      | _ -> raise Bad
    in
    let number () =
      let start = !pos in
      if peek () = Some '-' then advance ();
      int_part ();
      if peek () = Some '.' then begin
        advance ();
        digits ()
      end;
      (match peek () with
      | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
      | _ -> ());
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> raise Bad
    in
    (* UTF-8-encode one code point into [b] *)
    let add_utf8 b cp =
      if cp < 0x80 then Buffer.add_char b (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
      end
      else if cp < 0x10000 then begin
        Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xf0 lor (cp lsr 18)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
      end
    in
    let hex4 () =
      let v = ref 0 in
      for _ = 1 to 4 do
        (match peek () with
        | Some ('0' .. '9' as c) -> v := (!v * 16) + (Char.code c - Char.code '0')
        | Some ('a' .. 'f' as c) -> v := (!v * 16) + (Char.code c - Char.code 'a' + 10)
        | Some ('A' .. 'F' as c) -> v := (!v * 16) + (Char.code c - Char.code 'A' + 10)
        | _ -> raise Bad);
        advance ()
      done;
      !v
    in
    let string_lit () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> raise Bad
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' as c) | Some ('\\' as c) | Some ('/' as c) ->
            Buffer.add_char b c;
            advance ();
            go ()
          | Some 'b' -> Buffer.add_char b '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char b '\012'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'u' ->
            advance ();
            let cp = hex4 () in
            (* combine a surrogate pair when one follows; otherwise keep the
               lone escape as U+FFFD *)
            let cp =
              if cp >= 0xd800 && cp <= 0xdbff
                 && !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
                advance ();
                advance ();
                let lo = hex4 () in
                if lo >= 0xdc00 && lo <= 0xdfff then
                  0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                else 0xfffd
              end
              else if cp >= 0xd800 && cp <= 0xdfff then 0xfffd
              else cp
            in
            add_utf8 b cp;
            go ()
          | _ -> raise Bad)
        | Some c when Char.code c < 0x20 -> raise Bad
        | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let rec value () =
      skip_ws ();
      let v =
        match peek () with
        | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = string_lit () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                advance ();
                members ((k, v) :: acc)
              | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
              | _ -> raise Bad
            in
            Obj (members [])
          end
        | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elements acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                advance ();
                elements (v :: acc)
              | Some ']' ->
                advance ();
                List.rev (v :: acc)
              | _ -> raise Bad
            in
            Arr (elements [])
          end
        | Some '"' -> Str (string_lit ())
        | Some 't' ->
          literal "true";
          Bool true
        | Some 'f' ->
          literal "false";
          Bool false
        | Some 'n' ->
          literal "null";
          Null
        | Some ('-' | '0' .. '9') -> number ()
        | _ -> raise Bad
      in
      skip_ws ();
      v
    in
    match
      let v = value () in
      if !pos <> n then raise Bad;
      v
    with
    | v -> Some v
    | exception Bad -> None

  let is_valid s = parse s <> None

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let get k f v = Option.bind (member k v) f
  let index i = function Arr vs -> List.nth_opt vs i | _ -> None

  (* null is how the writer prints a non-finite number *)
  let to_num = function Num f -> Some f | Null -> Some Float.nan | _ -> None

  let to_int = function
    | Num f when Float.is_integer f && Float.abs f <= 0x1p53 -> Some (int_of_float f)
    | _ -> None

  let to_str = function Str s -> Some s | _ -> None

  (* all or nothing: [None] as soon as one element does not decode *)
  let all f l =
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | x :: rest -> ( match f x with Some y -> go (y :: acc) rest | None -> None)
    in
    go [] l

  let to_list f = function Arr vs -> all f vs | _ -> None

  let to_fields f = function
    | Obj kvs -> all (fun (k, v) -> Option.map (fun x -> (k, x)) (f v)) kvs
    | _ -> None

  let number_leaves v =
    let rec walk path v acc =
      let key k = if path = "" then k else path ^ "." ^ k in
      match v with
      | Num f -> (path, f) :: acc
      | Obj kvs -> List.fold_left (fun acc (k, v) -> walk (key k) v acc) acc kvs
      | Arr vs ->
        snd (List.fold_left (fun (i, acc) v -> (i + 1, walk (key (string_of_int i)) v acc)) (0, acc) vs)
      | Null | Bool _ | Str _ -> acc
    in
    List.rev (walk "" v [])
end

(* ---- snapshots ---- *)

module Snapshot = struct
  type span = { name : string; labels : labels; ts : float; dur : float; depth : int; clock : string }

  type t = {
    clock : string;
    counters : (string * labels * int) list;
    gauges : (string * labels * float) list;
    histograms : (string * labels * Histogram.snap) list;
    spans : span list;
    dropped_spans : int;
  }

  (* Capture-and-reset must be a single atomic step per metric: the registry
     mutex serializes [take] against registration, but counter/gauge hits from
     worker domains never take that mutex. A read-then-zero reset would lose
     every increment that lands between the two operations (regression-tested
     with a 4-domain hammer in test_telemetry.ml), so the captured value IS
     the exchanged value: [Atomic.exchange] for counters and gauges, and one
     snapshot-and-zero critical section under the histogram's own lock.
     Conservation law: sum of all reset snapshots + the live value afterwards
     = everything ever recorded, no matter how many domains are writing. *)
  let hist_take_reset (h : histogram) reset =
    Mutex.lock h.hmu;
    let s =
      {
        Histogram.count = h.count;
        sum = h.sum;
        min_v = h.min_v;
        max_v = h.max_v;
        buckets = Array.copy h.counts;
      }
    in
    if reset then begin
      h.count <- 0;
      h.sum <- 0.0;
      h.min_v <- infinity;
      h.max_v <- neg_infinity;
      Array.fill h.counts 0 n_buckets 0
    end;
    Mutex.unlock h.hmu;
    s

  let capture ~reset ~spans r =
    Mutex.lock r.mu;
    let counters = ref [] and gauges = ref [] and hists = ref [] in
    Hashtbl.iter
      (fun (name, labels) m ->
        match m with
        | Counter c ->
          let v = if reset then Atomic.exchange c 0 else Atomic.get c in
          counters := (name, labels, v) :: !counters
        | Gauge g ->
          let v = if reset then Atomic.exchange g 0.0 else Atomic.get g in
          gauges := (name, labels, v) :: !gauges
        | Histogram h -> hists := (name, labels, hist_take_reset h reset) :: !hists)
      r.metrics;
    let by_key (n1, l1, _) (n2, l2, _) = compare (n1, l1) (n2, l2) in
    let spans =
      if not spans then []
      else
        List.rev_map
          (fun sp ->
            {
              name = sp.sp_name;
              labels = sp.sp_labels;
              ts = sp.sp_ts;
              dur = sp.sp_dur;
              depth = sp.sp_depth;
              clock = sp.sp_clock;
            })
          r.spans
    in
    let snap =
      {
        clock = r.ckind;
        counters = List.sort by_key !counters;
        gauges = List.sort by_key !gauges;
        histograms = List.sort by_key !hists;
        spans;
        dropped_spans = r.dropped_spans;
      }
    in
    if reset then begin
      (* metric values were already captured-and-zeroed above *)
      r.spans <- [];
      r.n_spans <- 0;
      r.dropped_spans <- 0;
      r.epoch <- r.clock ()
    end;
    Mutex.unlock r.mu;
    snap

  let take ?(reset = false) r = capture ~reset ~spans:true r
  let take_metrics r = capture ~reset:false ~spans:false r

  (* The one selection rule: a bare name selects every label set of that
     name, [name{k=v,...}] exactly the one [metric_key] prints that way.
     Labels are sorted (at registration, and by the collector's merge),
     so a label set has one printed key. *)
  let select key entries =
    match String.index_opt key '{' with
    | None -> List.filter_map (fun (n, _, v) -> if n = key then Some v else None) entries
    | Some i ->
      let name = String.sub key 0 i in
      List.filter_map
        (fun (n, l, v) -> if n = name && metric_key n l = key then Some v else None)
        entries

  let counter t key =
    match select key t.counters with [] -> None | vs -> Some (List.fold_left ( + ) 0 vs)

  let gauges t key = select key t.gauges

  let histogram t key =
    match select key t.histograms with
    | [] -> None
    | hs -> Some (List.fold_left Histogram.merge Histogram.empty hs)

  let counter_sum t name = Option.value ~default:0 (counter t name)
  let hist_sum t name = match histogram t name with Some h -> h.sum | None -> 0.0

  let span_total t name =
    List.fold_left (fun acc (sp : span) -> if sp.name = name then acc +. sp.dur else acc) 0.0 t.spans

  let span_count t name =
    List.fold_left (fun acc (sp : span) -> if sp.name = name then acc + 1 else acc) 0 t.spans

  (* ---- table exporter ---- *)

  let human_seconds s =
    if s = 0.0 then "0"
    else if Float.abs s < 1e-6 then Printf.sprintf "%.0f ns" (s *. 1e9)
    else if Float.abs s < 1e-3 then Printf.sprintf "%.1f us" (s *. 1e6)
    else if Float.abs s < 1.0 then Printf.sprintf "%.1f ms" (s *. 1e3)
    else Printf.sprintf "%.2f s" s

  let pp_table fmt t =
    let line name cells =
      Format.fprintf fmt "  %-44s %s@\n" name
        (String.concat "" (List.map (fun c -> Printf.sprintf "%12s" c) cells))
    in
    Format.fprintf fmt "telemetry snapshot (%s clock)@\n" t.clock;
    if t.counters <> [] then begin
      Format.fprintf fmt "counters:@\n";
      List.iter (fun (n, l, v) -> line (metric_key n l) [ string_of_int v ]) t.counters
    end;
    if t.gauges <> [] then begin
      Format.fprintf fmt "gauges:@\n";
      List.iter (fun (n, l, v) -> line (metric_key n l) [ Printf.sprintf "%g" v ]) t.gauges
    end;
    if t.histograms <> [] then begin
      Format.fprintf fmt "histograms:@\n";
      line "" [ "count"; "mean"; "p50"; "p99"; "max" ];
      List.iter
        (fun (n, l, (s : Histogram.snap)) ->
          (* name the unit from the metric name: "*_seconds" is a duration *)
          let render =
            if Filename.check_suffix n "_seconds" then human_seconds
            else fun v -> Printf.sprintf "%g" v
          in
          if s.count > 0 then
            line (metric_key n l)
              [
                string_of_int s.count;
                render (Histogram.mean s);
                render (Histogram.quantile s 0.5);
                render (Histogram.quantile s 0.99);
                render s.max_v;
              ])
        t.histograms
    end;
    if t.spans <> [] then begin
      Format.fprintf fmt "spans:@\n";
      line "" [ "count"; "total" ];
      let names = List.sort_uniq compare (List.map (fun (sp : span) -> sp.name) t.spans) in
      List.iter
        (fun n -> line n [ string_of_int (span_count t n); human_seconds (span_total t n) ])
        names
    end;
    if t.dropped_spans > 0 then Format.fprintf fmt "  (%d spans dropped)@\n" t.dropped_spans

  (* ---- JSON: the snapshot document and its decoder ---- *)

  (* an empty histogram's min and max are infinite: it prints 0 and the
     decoder restores them from count = 0 *)
  let histogram_fields (h : Histogram.snap) =
    let bound v = if h.count = 0 then 0.0 else v in
    Json.
      [
        ("count", int h.count);
        ("sum", Num h.sum);
        ("min", Num (bound h.min_v));
        ("max", Num (bound h.max_v));
        ("buckets", Arr (List.map int (Array.to_list h.buckets)));
      ]

  let histogram_of_json j =
    let open Json in
    let ( let* ) = Option.bind in
    let* count = get "count" to_int j in
    let* sum = get "sum" to_num j in
    let* min_v = get "min" to_num j in
    let* max_v = get "max" to_num j in
    let* buckets = get "buckets" (to_list to_int) j in
    if List.length buckets <> n_buckets then None
    else
      Some
        {
          Histogram.count;
          sum;
          min_v = (if count = 0 then infinity else min_v);
          max_v = (if count = 0 then neg_infinity else max_v);
          buckets = Array.of_list buckets;
        }

  let to_json t =
    let open Json in
    let row name labels fields = Obj (("name", Str name) :: ("labels", strings labels) :: fields) in
    let rows f l = Arr (List.map f l) in
    let span (sp : span) =
      row sp.name sp.labels
        [ ("ts", Num sp.ts); ("dur", Num sp.dur); ("depth", int sp.depth); ("clock", Str sp.clock) ]
    in
    to_string
      (Obj
         [
           ("clock", Str t.clock);
           ("counters", rows (fun (n, l, v) -> row n l [ ("value", int v) ]) t.counters);
           ("gauges", rows (fun (n, l, v) -> row n l [ ("value", Num v) ]) t.gauges);
           ("histograms", rows (fun (n, l, h) -> row n l (histogram_fields h)) t.histograms);
           ("spans", rows span t.spans);
           ("dropped_spans", int t.dropped_spans);
         ])

  let of_json j =
    let open Json in
    let ( let* ) = Option.bind in
    (* the --metrics-json machine wrapper and the labeled /metrics.json
       both nest the snapshot under "telemetry" *)
    let j = Option.value (member "telemetry" j) ~default:j in
    let named r = (get "name" to_str r, get "labels" (to_fields to_str) r) in
    let rows k value =
      get k
        (to_list (fun r ->
             match (named r, value r) with
             | (Some name, Some labels), Some v -> Some (name, labels, v)
             | _ -> None))
        j
    in
    let span r =
      let* ts = get "ts" to_num r in
      let* dur = get "dur" to_num r in
      let* depth = get "depth" to_int r in
      let* clock = get "clock" to_str r in
      match named r with
      | Some name, Some labels -> Some { name; labels; ts; dur; depth; clock }
      | _ -> None
    in
    match
      let* clock = get "clock" to_str j in
      let* counters = rows "counters" (get "value" to_int) in
      let* gauges = rows "gauges" (get "value" to_num) in
      let* histograms = rows "histograms" histogram_of_json in
      let* spans = get "spans" (to_list span) j in
      let* dropped_spans = get "dropped_spans" to_int j in
      Some { clock; counters; gauges; histograms; spans; dropped_spans }
    with
    | Some t -> Ok t
    | None -> Error "not a telemetry snapshot document"

  let to_chrome_trace t =
    let tid (sp : span) =
      match List.assoc_opt "server" sp.labels with
      | Some s -> (match int_of_string_opt s with Some i -> i + 1 | None -> 0)
      | None -> 0
    in
    let event (sp : span) =
      Json.(
        Obj
          [
            ("name", Str sp.name);
            ("cat", Str "alpenhorn");
            ("ph", Str "X");
            ("ts", Num (sp.ts *. 1e6));
            ("dur", Num (sp.dur *. 1e6));
            ("pid", int 0);
            ("tid", int (tid sp));
            ("args", strings (("clock", sp.clock) :: sp.labels));
          ])
    in
    Json.to_string
      (Json.Obj [ ("displayTimeUnit", Json.Str "ms"); ("traceEvents", Json.Arr (List.map event t.spans)) ])
end
