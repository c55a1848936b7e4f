module Drbg = Alpenhorn_crypto.Drbg
module Tel = Alpenhorn_telemetry.Telemetry
module Events = Alpenhorn_telemetry.Events

type kind =
  | Server_crash of { server : int; attempts : int }
  | Server_stall of { server : int; seconds : float }
  | Link_latency of { server : int; factor : float }
  | Link_loss of { server : int; fraction : float }
  | Client_offline of { client : int; rounds : int }

type fault = { round : int; kind : kind }

type t = { seed : string; faults : fault list }

(* Written so that a nan fails every bound: [not (x >= lo)] holds for it. *)
let validate_fault f =
  if f.round < 1 then invalid_arg "Faults: round must be >= 1";
  match f.kind with
  | Server_crash { server; attempts } ->
    if server < 0 then invalid_arg "Faults: crash server";
    if attempts < 1 then invalid_arg "Faults: crash attempts"
  | Server_stall { server; seconds } ->
    if server < 0 then invalid_arg "Faults: stall server";
    if not (seconds >= 0.0 && Float.is_finite seconds) then invalid_arg "Faults: stall seconds"
  | Link_latency { server; factor } ->
    if server < 0 then invalid_arg "Faults: latency server";
    if not (factor >= 1.0 && Float.is_finite factor) then
      invalid_arg "Faults: latency factor must be finite and >= 1"
  | Link_loss { server; fraction } ->
    if server < 0 then invalid_arg "Faults: loss server";
    if not (fraction >= 0.0 && fraction <= 1.0) then invalid_arg "Faults: loss fraction"
  | Client_offline { client; rounds } ->
    if client < 0 then invalid_arg "Faults: offline client";
    if rounds < 1 then invalid_arg "Faults: offline rounds"

(* Canonical order: by round, then by textual form — so a schedule prints,
   reparses and replays identically no matter how it was assembled. *)
let kind_rank = function
  | Server_crash _ -> 0
  | Server_stall _ -> 1
  | Link_latency _ -> 2
  | Link_loss _ -> 3
  | Client_offline _ -> 4

let compare_fault a b =
  match compare a.round b.round with
  | 0 -> (
    match compare (kind_rank a.kind) (kind_rank b.kind) with
    | 0 -> compare a.kind b.kind
    | c -> c)
  | c -> c

let of_list ?(seed = "faults") faults =
  List.iter validate_fault faults;
  { seed; faults = List.sort compare_fault faults }

let empty = of_list []
let seed t = t.seed
let to_list t = t.faults
let is_empty t = t.faults = []

(* ---- queries (what does round [round] do to server/client X?) ---- *)

let crash_attempts t ~round ~server =
  List.fold_left
    (fun acc f ->
      match f.kind with
      | Server_crash c when f.round = round && c.server = server -> Stdlib.max acc c.attempts
      | _ -> acc)
    0 t.faults

let stall_seconds t ~round ~server =
  List.fold_left
    (fun acc f ->
      match f.kind with
      | Server_stall s when f.round = round && s.server = server -> acc +. s.seconds
      | _ -> acc)
    0.0 t.faults

let latency_factor t ~round ~server =
  List.fold_left
    (fun acc f ->
      match f.kind with
      | Link_latency l when f.round = round && l.server = server -> acc *. l.factor
      | _ -> acc)
    1.0 t.faults

let loss_fraction t ~round ~server =
  let surviving =
    List.fold_left
      (fun acc f ->
        match f.kind with
        | Link_loss l when f.round = round && l.server = server -> acc *. (1.0 -. l.fraction)
        | _ -> acc)
      1.0 t.faults
  in
  1.0 -. surviving

let client_offline t ~round ~client =
  List.exists
    (fun f ->
      match f.kind with
      | Client_offline c ->
        c.client = client && round >= f.round && round < f.round + c.rounds
      | _ -> false)
    t.faults

(* ---- textual schedule format (the CLI's --faults SPEC) ----

   Entries separated by ';', each   kind@round:key=value,key=value
     crash@2:server=1,attempts=2    latency@1:server=2,factor=3
     stall@3:server=0,seconds=45    loss@1:server=0,fraction=0.2
     offline@4:client=7,rounds=2
   [to_string]/[parse] round-trip on the canonical form: a number prints
   in the fewest digits that read back to the same double. *)

let float_str v = Tel.Json.to_string (Tel.Json.Num v)

let kind_to_string = function
  | Server_crash { server; attempts } ->
    if attempts = 1 then Printf.sprintf "crash:server=%d" server
    else Printf.sprintf "crash:server=%d,attempts=%d" server attempts
  | Server_stall { server; seconds } ->
    Printf.sprintf "stall:server=%d,seconds=%s" server (float_str seconds)
  | Link_latency { server; factor } ->
    Printf.sprintf "latency:server=%d,factor=%s" server (float_str factor)
  | Link_loss { server; fraction } ->
    Printf.sprintf "loss:server=%d,fraction=%s" server (float_str fraction)
  | Client_offline { client; rounds } ->
    if rounds = 1 then Printf.sprintf "offline:client=%d" client
    else Printf.sprintf "offline:client=%d,rounds=%d" client rounds

let fault_to_string f =
  match String.index_opt (kind_to_string f.kind) ':' with
  | Some i ->
    let s = kind_to_string f.kind in
    Printf.sprintf "%s@%d:%s" (String.sub s 0 i) f.round
      (String.sub s (i + 1) (String.length s - i - 1))
  | None -> assert false

let to_string t = String.concat ";" (List.map fault_to_string t.faults)

let split_on sep s = String.split_on_char sep s |> List.filter (fun x -> x <> "")

let parse_kv entry =
  List.fold_left
    (fun acc kv ->
      match (acc, String.split_on_char '=' kv) with
      | Error _, _ -> acc
      | Ok l, [ k; _ ] when List.mem_assoc k l -> Error (Printf.sprintf "repeated key %S" k)
      | Ok l, [ k; v ] -> Ok ((k, v) :: l)
      | Ok _, _ -> Error (Printf.sprintf "bad key=value %S" kv))
    (Ok []) entry

let parse_entry s =
  let fail msg = Error (Printf.sprintf "%s in fault %S" msg s) in
  match String.index_opt s '@' with
  | None -> fail "missing '@round'"
  | Some at -> (
    let kind_name = String.sub s 0 at in
    let rest = String.sub s (at + 1) (String.length s - at - 1) in
    let round_str, kvs_str =
      match String.index_opt rest ':' with
      | None -> (rest, "")
      | Some c -> (String.sub rest 0 c, String.sub rest (c + 1) (String.length rest - c - 1))
    in
    match int_of_string_opt round_str with
    | None -> fail "bad round number"
    | Some round -> (
      match parse_kv (split_on ',' kvs_str) with
      | Error e -> fail e
      | Ok kvs -> (
        (* every key a kind reads; any other key is a typo, not a default *)
        let read = ref [] in
        let kv of_string ?default k =
          read := k :: !read;
          match (List.assoc_opt k kvs, default) with
          | Some v, _ -> Option.to_result ~none:(Printf.sprintf "bad %s" k) (of_string v)
          | None, Some d -> Ok d
          | None, None -> Error (Printf.sprintf "missing %s" k)
        in
        let int_kv ?default k = kv int_of_string_opt ?default k in
        let float_kv k = kv float_of_string_opt k in
        let ( let* ) r f = Result.bind r f in
        let kind =
          match kind_name with
          | "crash" ->
            let* server = int_kv "server" in
            let* attempts = int_kv ~default:1 "attempts" in
            Ok (Server_crash { server; attempts })
          | "stall" ->
            let* server = int_kv "server" in
            let* seconds = float_kv "seconds" in
            Ok (Server_stall { server; seconds })
          | "latency" ->
            let* server = int_kv "server" in
            let* factor = float_kv "factor" in
            Ok (Link_latency { server; factor })
          | "loss" ->
            let* server = int_kv "server" in
            let* fraction = float_kv "fraction" in
            Ok (Link_loss { server; fraction })
          | "offline" ->
            let* client = int_kv "client" in
            let* rounds = int_kv ~default:1 "rounds" in
            Ok (Client_offline { client; rounds })
          | k -> Error (Printf.sprintf "unknown fault kind %S" k)
        in
        match (kind, List.find_opt (fun (k, _) -> not (List.mem k !read)) kvs) with
        | Error e, _ -> fail e
        | Ok _, Some (k, _) -> fail (Printf.sprintf "unknown key %S" k)
        | Ok kind, None -> Ok { round; kind })))

let parse ?(seed = "faults") s =
  let rec go acc = function
    | [] -> Ok (of_list ~seed (List.rev acc))
    | e :: rest -> (
      match parse_entry e with
      | Error _ as err -> err
      | Ok f -> ( match validate_fault f with () -> go (f :: acc) rest | exception Invalid_argument m -> Error m))
  in
  go [] (split_on ';' (String.trim s))

(* ---- seeded random schedules (the CLI's --fault-seed) ---- *)

let generate ~seed ~rounds ~n_servers ?(n_clients = 0) ?(crash_p = 0.3) ?(stall_p = 0.3)
    ?(latency_p = 0.2) ?(loss_p = 0.2) ?(offline_p = 0.2) () =
  if rounds < 1 then invalid_arg "Faults.generate: rounds";
  if n_servers < 1 then invalid_arg "Faults.generate: n_servers";
  let rng = Drbg.create ~seed:("fault-schedule:" ^ seed) in
  let faults = ref [] in
  let add round kind = faults := { round; kind } :: !faults in
  for round = 1 to rounds do
    if Drbg.float rng < crash_p then
      add round (Server_crash { server = Drbg.int rng n_servers; attempts = 1 });
    if Drbg.float rng < stall_p then
      add round
        (Server_stall
           { server = Drbg.int rng n_servers; seconds = 5.0 +. (Drbg.float rng *. 55.0) });
    if Drbg.float rng < latency_p then
      add round
        (Link_latency { server = Drbg.int rng n_servers; factor = 2.0 +. (Drbg.float rng *. 6.0) });
    if Drbg.float rng < loss_p then
      add round
        (Link_loss
           { server = Drbg.int rng n_servers; fraction = 0.05 +. (Drbg.float rng *. 0.25) });
    if n_clients > 0 && Drbg.float rng < offline_p then
      add round
        (Client_offline { client = Drbg.int rng n_clients; rounds = 1 + Drbg.int rng 3 })
  done;
  of_list ~seed (List.rev !faults)

(* ---- the retry policy and the one retry loop (DESIGN.md §10) ---- *)

type policy = {
  max_attempts : int;
  base_delay : float;
  backoff_factor : float;
  max_delay : float;
  jitter : float;
  round_timeout : float;
}

let default_policy =
  {
    max_attempts = 4;
    base_delay = 5.0;
    backoff_factor = 2.0;
    max_delay = 60.0;
    jitter = 0.2;
    round_timeout = 600.0;
  }

let validate_policy p =
  if p.max_attempts < 1 then invalid_arg "Faults: max_attempts must be >= 1";
  if not (p.base_delay >= 0.0 && p.max_delay >= 0.0) then
    invalid_arg "Faults: backoff delays must be >= 0";
  if not (p.backoff_factor >= 1.0) then invalid_arg "Faults: backoff_factor must be >= 1";
  if not (p.jitter >= 0.0 && p.jitter <= 1.0) then invalid_arg "Faults: jitter must be in [0, 1]";
  if not (p.round_timeout > 0.0) then invalid_arg "Faults: round_timeout must be > 0"

let backoff_delay policy ~seed ~attempt =
  validate_policy policy;
  if attempt < 1 then invalid_arg "Faults.backoff_delay: attempt must be >= 1";
  let raw =
    Stdlib.min policy.max_delay
      (policy.base_delay *. (policy.backoff_factor ** float_of_int (attempt - 1)))
  in
  (* Jitter comes from a DRBG keyed on (seed, attempt) only — never from a
     protocol rng — so retries neither perturb the protocol's randomness
     stream nor depend on how many draws preceded them. *)
  let u = Drbg.float (Drbg.create ~seed:(Printf.sprintf "backoff:%s:%d" seed attempt)) in
  Stdlib.max 0.0 (raw *. (1.0 +. (policy.jitter *. ((2.0 *. u) -. 1.0))))

let c_aborts = Tel.Counter.v Tel.default "faults.rounds_aborted"
let c_retries = Tel.Counter.v Tel.default "faults.retries"
let g_streak = Tel.Gauge.v Tel.default "faults.consecutive_aborts"
let h_recovery = Tel.Histogram.v Tel.default "faults.recovery_seconds"

let retry t policy ?(events = Events.default) ~phase ~round ~labels ~wait attempt =
  let log ?severity name detail = Events.log events ?severity ~labels ~detail name in
  let rec go n first_abort =
    match attempt n with
    | Ok (v, published) ->
      Option.iter
        (fun t0 ->
          let recovery = published -. t0 in
          Tel.Histogram.observe h_recovery recovery;
          log "round.recovered" (Printf.sprintf "recovered on attempt %d after %g s" n recovery))
        first_abort;
      (Some v, n)
    | Error aborted ->
      Tel.Counter.inc c_aborts;
      (* attempts abort one after another until one publishes, so the
         attempt number is the streak; the gauge keeps its high-water mark
         since the registry's last reset *)
      if float_of_int n > Tel.Gauge.value g_streak then Tel.Gauge.set g_streak (float_of_int n);
      let first_abort = Some (Option.value first_abort ~default:aborted) in
      if n >= policy.max_attempts then begin
        log ~severity:Events.Error "round.failed" (Printf.sprintf "gave up after %d attempts" n);
        (None, n)
      end
      else begin
        let delay =
          backoff_delay policy ~seed:(Printf.sprintf "%s:%s:%d" t.seed phase round) ~attempt:n
        in
        Tel.Counter.inc c_retries;
        log ~severity:Events.Warn "round.retry"
          (Printf.sprintf "attempt %d aborted; retrying after %.1f s backoff" n delay);
        wait delay;
        go (n + 1) first_abort
      end
  in
  go 1 None
