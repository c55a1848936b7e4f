module Drbg = Alpenhorn_crypto.Drbg
module Params = Alpenhorn_pairing.Params
module Ibe = Alpenhorn_ibe.Ibe
module Bls = Alpenhorn_bls.Bls
module Pkg = Alpenhorn_pkg.Pkg
module Chain = Alpenhorn_mixnet.Chain
module Server = Alpenhorn_mixnet.Server
module Mailbox = Alpenhorn_mixnet.Mailbox
module Shard = Alpenhorn_mixnet.Shard
module Bloom = Alpenhorn_bloom.Bloom
module Tel = Alpenhorn_telemetry.Telemetry
module Trace = Alpenhorn_telemetry.Trace
module Events = Alpenhorn_telemetry.Events
module Runtime_stats = Alpenhorn_telemetry.Runtime_stats
module Timeseries = Alpenhorn_telemetry.Timeseries

exception Round_failed of { phase : string; round : int; attempts : int }

type mode = [ `AddFriend | `Dialing ]

(* The seam between the rounds below, written once, and the servers they
   run on: in process (function calls into Pkg.t and local Chain hops,
   built by [local_backend]) or over framed TCP RPC
   (Alpenhorn_remote.Net_deployment). A PKG's round operations return
   [None] when it is down, as a [Chain.hop]'s do. *)
type pkg = {
  public_key : Bls.public;
  register : now:int -> email:string -> pk:Bls.public -> (unit, Pkg.error) result;
  inbox : email:string -> string list;
  confirm : now:int -> email:string -> token:string -> (unit, Pkg.error) result;
  begin_round : round:int -> string option;
  reveal : round:int -> (Ibe.master_public * string, Pkg.error) result option;
  extract_batch :
    now:int ->
    round:int ->
    (string * Bls.signature) array ->
    (Ibe.identity_key * Bls.signature, Pkg.error) result array option;
  end_round : round:int -> unit;
}

type backend = {
  pkgs : pkg array;
  chain : mode -> Ibe.master_public option Chain.t;
  trace_round : 'a. Trace.t -> phase:string -> round:int -> (Trace.t option -> 'a) -> 'a;
  close : unit -> unit;
}

type t = {
  config : Config.t;
  params : Params.t;
  rng : Drbg.t; (* deployment root: client derivations *)
  b : backend;
  dial_archive : (int, Bloom.t array * Shard.t) Hashtbl.t; (* round -> its filters (§5.1) *)
  mutable clients : Client.t list; (* registered clients *)
  mutable af_round : int;
  mutable dial_round : int;
  mutable clock : int;
  mutable faults : Faults.t;
  mutable policy : Faults.policy;
  mutable tracer : Trace.t option;
}

(* ---- the servers, built from the seed ---- *)

(* Every server derives its DRBG from the deployment root along a fixed
   label, whichever process builds it: [Drbg.derive] is a pure HMAC fork,
   so a server process reproduces the in-process server of the same seed. *)
let root_rng ~seed = Drbg.create ~seed:("deployment" ^ seed)

let new_pkg ~config ~seed ~index =
  (* the simulated email provider: address -> tokens, newest first *)
  let inbox = Hashtbl.create 16 in
  let read ~email = Option.value ~default:[] (Hashtbl.find_opt inbox email) in
  let pkg =
    Pkg.create (Config.params config)
      ~rng:(Drbg.derive (root_rng ~seed) (Printf.sprintf "pkg-%d" index))
      ~send_email:(fun ~to_ ~token -> Hashtbl.replace inbox to_ (token :: read ~email:to_))
      ()
  in
  (pkg, read)

let new_mix_server ~config ~seed mode ~position =
  let chain = match mode with `AddFriend -> "af-chain" | `Dialing -> "dial-chain" in
  let chain_rng = Drbg.derive (root_rng ~seed) chain in
  Server.create (Config.params config)
    ~rng:(Drbg.derive chain_rng (Printf.sprintf "mix-server-%d" position))
    ~position ~chain_length:config.Config.chain_length

let validate ~where config =
  match Config.validate config with Ok () -> () | Error m -> invalid_arg (where ^ ": " ^ m)

let of_backend ~config ~seed b =
  validate ~where:"Deployment.of_backend" config;
  {
    config;
    params = Config.params config;
    rng = root_rng ~seed;
    b;
    dial_archive = Hashtbl.create 64;
    clients = [];
    af_round = 0;
    dial_round = 0;
    clock = 0;
    faults = Faults.empty;
    policy = Faults.default_policy;
    tracer = None;
  }

(* ---- the in-process backend ---- *)

let local_backend ~config ~seed =
  validate ~where:"Deployment.local_backend" config;
  let params = Config.params config in
  let rng = root_rng ~seed in
  let local (pkg, inbox) =
    {
      public_key = Pkg.long_term_public pkg;
      register = Pkg.register pkg;
      inbox;
      confirm = Pkg.confirm pkg;
      begin_round = (fun ~round -> Some (Pkg.begin_round pkg ~round));
      reveal = (fun ~round -> Some (Pkg.reveal_round pkg ~round));
      extract_batch = (fun ~now ~round reqs -> Some (Pkg.extract_batch pkg ~now ~round reqs));
      end_round = Pkg.end_round pkg;
    }
  in
  let pkgs = Array.init config.Config.n_pkgs (fun index -> new_pkg ~config ~seed ~index) in
  (* noise bodies come from the deployment root, in the chain's order *)
  let chain_of mode =
    Chain.create
      (Array.init config.Config.chain_length (fun position ->
           Chain.local (new_mix_server ~config ~seed mode ~position)
             ~noise_body:(fun mpk_agg -> Wire.noise_body params rng mode ~mpk_agg)))
  in
  let af_chain = chain_of `AddFriend and dial_chain = chain_of `Dialing in
  ( Array.map fst pkgs,
    {
      pkgs = Array.map local pkgs;
      chain = (function `AddFriend -> af_chain | `Dialing -> dial_chain);
      (* messages carry their trace contexts out of band through the chain *)
      trace_round = (fun tr ~phase:_ ~round:_ f -> f (Some tr));
      close = ignore;
    } )

let create ~config ~seed = of_backend ~config ~seed (snd (local_backend ~config ~seed))
let params t = t.params
let pkg_public_keys t = Array.to_list (Array.map (fun p -> p.public_key) t.b.pkgs)
let now t = t.clock
let advance_clock t ~seconds = t.clock <- t.clock + seconds
let dialing_round_number t = t.dial_round
let set_tracer t tr = t.tracer <- tr
let close t = t.b.close ()

let new_client t ~email ~callbacks =
  Client.create ~config:t.config
    ~rng:(Drbg.derive t.rng ("client-" ^ email))
    ~email ~pkg_public_keys:(pkg_public_keys t) ~callbacks

let register t client =
  let email = Client.email client and pk = Client.signing_public client in
  let at p () =
    Result.bind (p.register ~now:t.clock ~email ~pk) @@ fun () ->
    (* the user reads the confirmation email and echoes the token; with no
       email delivered, confirmation fails *)
    p.confirm ~now:t.clock ~email ~token:(match p.inbox ~email with tok :: _ -> tok | [] -> "")
  in
  let result = Array.fold_left (fun r p -> Result.bind r (at p)) (Ok ()) t.b.pkgs in
  if Result.is_ok result && not (List.memq client t.clients) then
    t.clients <- t.clients @ [ client ];
  result

(* ---- fault injection and recovery (DESIGN.md §10) ---- *)

let set_faults t faults = t.faults <- faults

let set_retry_policy t p =
  Faults.validate_policy p;
  t.policy <- p

let retry_policy t = t.policy
let c_injected kind = Tel.Counter.v Tel.default ~labels:[ ("kind", kind) ] "faults.injected"

(* An attempt abandoned outside the chain, on a stall longer than the
   policy's round timeout or a PKG fault: the round aborts exactly like a
   mixer crash, just with a different event. *)
exception Aborted

(* Apply this attempt's scheduled faults. Called right after the chain
   announced its round keys — a crash injected here models a server dying
   after it announced its round key, the case the anytrust abort path
   exists for. *)
let inject_faults t mode ~labels ~round ~attempt =
  let servers = t.config.Config.chain_length in
  for s = 0 to servers - 1 do
    if Faults.crash_attempts t.faults ~round ~server:s >= attempt then begin
      Chain.crash_server (t.b.chain mode) ~server:s;
      Tel.Counter.inc (c_injected "crash")
    end
  done;
  if attempt = 1 then begin
    let stall = ref 0.0 in
    for s = 0 to servers - 1 do
      stall := !stall +. Faults.stall_seconds t.faults ~round ~server:s
    done;
    if !stall > 0.0 then begin
      Tel.Counter.inc (c_injected "stall");
      let timeout = t.policy.Faults.round_timeout in
      if !stall > timeout then begin
        advance_clock t ~seconds:(int_of_float (Float.ceil timeout));
        Events.log Events.default ~severity:Warn ~labels
          ~detail:
            (Printf.sprintf "stall of %.0f s exceeds the %.0f s round timeout; aborting" !stall
               timeout)
          "round.timeout";
        raise Aborted
      end
      else begin
        advance_clock t ~seconds:(int_of_float (Float.ceil !stall));
        Events.log Events.default ~severity:Warn ~labels
          ~detail:
            (Printf.sprintf "server stalled %.0f s; round delayed but under the %.0f s timeout"
               !stall timeout)
          "round.stall"
      end
    end
  end

(* One round's attempts through the retry loop: checkpoint every
   participating client, run the round body, and on a clean abort (any
   server down, or a stall past the timeout) roll everything per-round
   back — the chain erases round keys and restarts crashed servers, client
   queues and DH state are restored; the add-friend body erases the PKGs'
   round secrets itself. Backoff waits on the logical clock. *)
let with_recovery t mode ~phase ~round ~clients body =
  let labels = [ ("phase", phase); ("round", string_of_int round) ] in
  let checkpoints = List.map (fun c -> (c, Client.checkpoint c)) clients in
  let attempt n =
    match body ~after_begin:(fun () -> inject_faults t mode ~labels ~round ~attempt:n) with
    | result -> Ok (result, float_of_int t.clock)
    | exception (Chain.Aborted _ | Aborted) ->
      let aborted = float_of_int t.clock in
      Chain.recover (t.b.chain mode);
      List.iter (fun (c, cp) -> Client.rollback c cp) checkpoints;
      Error aborted
  in
  let wait delay = advance_clock t ~seconds:(int_of_float (Float.ceil delay)) in
  match Faults.retry t.faults t.policy ~phase ~round ~labels ~wait attempt with
  | Some result, n -> (result, n)
  | None, n -> raise (Round_failed { phase; round; attempts = n })

(* The round's participants minus the clients the schedule holds offline,
   identified by registration index (stable across the whole run). *)
let online_clients t ~phase ~round participants =
  let clients = match participants with Some l -> l | None -> t.clients in
  if Faults.is_empty t.faults then clients
  else begin
    let index c =
      let rec go i = function [] -> -1 | x :: rest -> if x == c then i else go (i + 1) rest in
      go 0 t.clients
    in
    let online, offline =
      List.partition
        (fun c ->
          let i = index c in
          i < 0 || not (Faults.client_offline t.faults ~round ~client:i))
        clients
    in
    if offline <> [] then begin
      Tel.Counter.add (c_injected "offline") (List.length offline);
      Events.log Events.default
        ~labels:[ ("phase", phase) ]
        ~detail:(Printf.sprintf "round %d: %d clients offline" round (List.length offline))
        "client.offline"
    end;
    online
  end

(* ---- the rounds, written once for every backend ---- *)

let g_mailbox_load = Tel.Gauge.v Tel.default "mailbox.max_load"

(* The §6/§5.1 mailbox plan of a round with [clients] submitting. *)
let plan t ~clients ~noise_mu ~shards =
  let c = t.config in
  Mailbox.plan
    ~expected_real:
      (int_of_float (Float.round (float_of_int (List.length clients) *. c.Config.active_fraction)))
    ~noise_mu ~chain_length:c.Config.chain_length ~shards

let log_round ~phase name detail =
  Events.log Events.default ~labels:[ ("phase", phase) ] ~detail name

(* One round, retries included: [round.start] before, and at the close the
   completed-round count, a runtime/GC reading and one sample on the
   process-wide time-series ring, so a live scrape (or [top]) sees history
   filling while rounds run. The tracer, if any, goes to the backend's
   round trace. *)
let run_round t mode ~phase ~round ~clients body =
  log_round ~phase "round.start"
    (Printf.sprintf "round %d, %d clients" round (List.length clients));
  let run tracer = with_recovery t mode ~phase ~round ~clients (body ~tracer) in
  let result, attempts =
    match t.tracer with None -> run None | Some tr -> t.b.trace_round tr ~phase ~round run
  in
  Tel.Counter.inc (Tel.Counter.v Tel.default ~labels:[ ("phase", phase) ] "round.completed");
  Runtime_stats.sample (Runtime_stats.get_default ());
  Timeseries.record Timeseries.default;
  (result, attempts)

(* Every client downloads its own mailbox and runs its [scan] on it; under
   per-message tracing, the scan is stitched onto each traced message
   published into that mailbox. *)
let scan_all ~tracer ~num_mailboxes ~published scans =
  Tel.Span.with_ Tel.default "client.scan" @@ fun () ->
  List.concat_map
    (fun (c, scan) ->
      let email = Client.email c in
      let mb = Mailbox.mailbox_of_identity email ~num_mailboxes in
      let t0 = Tel.now Tel.default in
      let evs = scan mb in
      Option.iter
        (fun tr ->
          List.iter
            (fun (pmb, pctx) ->
              if pmb = mb then
                Trace.emit tr (Trace.child tr pctx)
                  ~labels:[ ("client", email) ]
                  ~name:"client.scan" ~ts:t0 ~dur:(Tel.now Tel.default -. t0) ())
            published)
        tracer;
      List.map (fun ev -> (email, ev)) evs)
    scans

(* Close event: what went in, what the chain added, what was dropped. *)
let log_close ~phase ~round ~real_in ~noise ~dropped =
  log_round ~phase "round.close"
    (Printf.sprintf "round %d: %d in, %d noise, %d dropped" round real_in noise dropped)

(* ---- add-friend round (Algorithm 1) ---- *)

type af_stats = {
  af_round : int;
  af_attempts : int;
  requests_in : int;
  noise_added : int;
  dropped : int;
  num_mailboxes : int;
  mailbox_bytes : int array;
  events : (string * Client.af_event) list;
}

(* Anytrust (§4.5): a round needs every PKG as it needs every mixer, so
   a PKG that is down, fails its reveal or opens another key than the one
   it committed to aborts the attempt. *)
let pkg_abort j detail =
  Events.log Events.default ~severity:Error
    ~labels:[ ("pkg", string_of_int j) ]
    ~detail:(detail ^ "; round secrets erased, no mailboxes published")
    "pkg.round_abort";
  raise Aborted

let answered j = function Some v -> v | None -> pkg_abort j "PKG down mid-round"

(* PKGs rotate master keys: commit, then reveal; verify every opening and
   aggregate the revealed keys. *)
let rotate t ~round =
  let commitments = Array.mapi (fun j p -> answered j (p.begin_round ~round)) t.b.pkgs in
  Array.mapi
    (fun j p ->
      match answered j (p.reveal ~round) with
      | Error e -> pkg_abort j ("reveal failed: " ^ Pkg.error_to_string e)
      | Ok (mpk, opening) ->
        if Pkg.verify_commitment t.params ~commitment:commitments.(j) ~mpk ~opening then mpk
        else pkg_abort j "revealed a key other than its commitment")
    t.b.pkgs
  |> Array.to_list |> Ibe.aggregate_public t.params

let run_addfriend_round (t : t) ?participants () =
  t.af_round <- t.af_round + 1;
  let round = t.af_round and phase = "addfriend" in
  let clients = online_clients t ~phase ~round participants in
  let body ~tracer ~after_begin =
    Tel.Span.with_ Tel.default "round.addfriend" @@ fun () ->
    (* PKGs erase master secrets however the attempt ends (§4.4) *)
    Fun.protect ~finally:(fun () -> Array.iter (fun p -> p.end_round ~round) t.b.pkgs)
    @@ fun () ->
    (* 1. PKGs rotate master keys *)
    let mpk_agg = Tel.Span.with_ Tel.default "pkg.rotate" (fun () -> rotate t ~round) in
    let num_mailboxes =
      (plan t ~clients ~noise_mu:t.config.Config.addfriend_noise_mu ~shards:0).num_mailboxes
    in
    (* 2. every client extracts identity keys and submits one onion; a
       client a PKG refuses sits the round out *)
    let server_pks = Chain.begin_round (t.b.chain `AddFriend) in
    after_begin ();
    let contexts, batch =
      Tel.Span.with_ Tel.default "client.submit" @@ fun () ->
      let contexts =
        Client.begin_addfriend_round_batch clients ~round ~n_pkgs:(Array.length t.b.pkgs)
          ~extract_batch:(fun j reqs ->
            answered j (t.b.pkgs.(j).extract_batch ~now:t.clock ~round reqs))
        |> List.filter_map (fun (c, result) ->
               match result with
               | Ok ctx -> Some (c, ctx)
               | Error e ->
                 Events.log Events.default ~severity:Warn
                   ~labels:[ ("client", Client.email c) ]
                   ~detail:(Printf.sprintf "round %d: %s" round (Pkg.error_to_string e))
                   "client.extract_failed";
                 None)
      in
      let batch =
        List.map
          (fun (c, ctx) ->
            Client.addfriend_submission_traced c ctx ?tracer ~mpk_agg ~num_mailboxes ~server_pks ())
          contexts
        |> Array.of_list
      in
      (contexts, batch)
    in
    (* 3. the mixnet chain runs the round; its noise is IBE ciphertexts
       under the round's key when noise is faithful *)
    let final, noise_added, published =
      Chain.mix (t.b.chain `AddFriend) ~noise_mu:t.config.Config.addfriend_noise_mu
        ~laplace_b:t.config.Config.laplace_b ~num_mailboxes
        ~noise:(if t.config.Config.faithful_noise then Some mpk_agg else None)
        ?tracer batch
    in
    let mailboxes, dropped = Mailbox.distribute ~num_mailboxes ~mode:`AddFriend final in
    let buckets = Mailbox.plain_exn mailboxes in
    (* the modeled §6 mailbox-load ceiling input: the fullest mailbox *)
    Tel.Gauge.set g_mailbox_load
      (float_of_int (Array.fold_left (fun m l -> Stdlib.max m (List.length l)) 0 buckets));
    (* 4-6. every client downloads its mailbox and scans *)
    let events =
      scan_all ~tracer ~num_mailboxes ~published
        (List.map
           (fun (c, ctx) -> (c, fun mb -> Client.scan_addfriend_mailbox c ctx buckets.(mb)))
           contexts)
    in
    advance_clock t ~seconds:t.config.Config.addfriend_round_seconds;
    log_close ~phase ~round ~real_in:(Array.length batch) ~noise:noise_added ~dropped;
    {
      af_round = round;
      af_attempts = 1;
      requests_in = Array.length batch;
      noise_added;
      dropped;
      num_mailboxes;
      mailbox_bytes = Mailbox.size_bytes mailboxes;
      events;
    }
  in
  let stats, attempts = run_round t `AddFriend ~phase ~round ~clients body in
  { stats with af_attempts = attempts }

(* ---- dialing round (§5) ---- *)

type dial_stats = {
  dial_round : int;
  dial_attempts : int;
  tokens_in : int;
  dial_noise_added : int;
  dial_dropped : int;
  dial_num_mailboxes : int;
  filter_bytes : int array;
  calls : (string * Client.dial_event) list;
}

let archived_filter (t : t) ~round ~email =
  Option.map
    (fun (filters, shard) -> filters.(Shard.of_identity shard email))
    (Hashtbl.find_opt t.dial_archive round)

let catch_up_client (t : t) client =
  let first = Client.dialing_round client + 1 in
  let through =
    List.init
      (Stdlib.max 0 (t.dial_round - first + 1))
      (fun i ->
        let round = first + i in
        (round, archived_filter t ~round ~email:(Client.email client)))
  in
  Client.catch_up_dialing client ~through

let run_dialing_round (t : t) ?participants () =
  let round = t.dial_round + 1 and phase = "dialing" in
  let clients = online_clients t ~phase ~round participants in
  (* A client coming back online, whether it sat out under a fault
     schedule or was left out of [?participants], first replays the
     archived filters of the rounds it missed (§5.1/§5.3) — before this
     round runs, so its keywheel is caught up and this round's tokens
     still reach it. *)
  let recovered =
    List.concat_map
      (fun c -> List.map (fun ev -> (Client.email c, ev)) (catch_up_client t c))
      clients
  in
  t.dial_round <- round;
  let body ~tracer ~after_begin =
    Tel.Span.with_ Tel.default "round.dialing" @@ fun () ->
    (* §5.1 CDN model: one Bloom filter per shard of contiguous mailboxes;
       with no shard count configured, one shard per mailbox *)
    let { Mailbox.num_mailboxes; num_shards; _ } =
      plan t ~clients ~noise_mu:t.config.Config.dialing_noise_mu
        ~shards:t.config.Config.dial_shards
    in
    List.iter (fun c -> Client.advance_dialing c ~round) clients;
    let server_pks = Chain.begin_round (t.b.chain `Dialing) in
    after_begin ();
    let batch =
      Tel.Span.with_ Tel.default "client.submit" @@ fun () ->
      List.map (fun c -> Client.dialing_submission_traced c ?tracer ~num_mailboxes ~server_pks ())
        clients
      |> Array.of_list
    in
    let final, noise_added, published =
      Chain.mix (t.b.chain `Dialing) ~noise_mu:t.config.Config.dialing_noise_mu
        ~laplace_b:t.config.Config.laplace_b ~num_mailboxes ~noise:None ?tracer batch
    in
    let shard = Shard.create ~num_shards ~num_mailboxes in
    let shards, dropped = Mailbox.distribute_sharded ~shard ~mode:`Dialing final in
    let filters = Mailbox.filter_shards_exn shards in
    (* archive this round's filters; erase rounds past the retention window.
       Only a completed round is archived — an aborted attempt never
       publishes, not even partially. *)
    Hashtbl.replace t.dial_archive round (filters, shard);
    Hashtbl.remove t.dial_archive (round - t.config.Config.dial_archive_rounds);
    let calls =
      scan_all ~tracer ~num_mailboxes ~published
        (List.map
           (fun c ->
             (c, fun mb -> Client.scan_dialing_mailbox c filters.(Shard.of_mailbox shard mb)))
           clients)
    in
    advance_clock t ~seconds:t.config.Config.dialing_round_seconds;
    log_close ~phase ~round ~real_in:(Array.length batch) ~noise:noise_added ~dropped;
    {
      dial_round = round;
      dial_attempts = 1;
      tokens_in = Array.length batch;
      dial_noise_added = noise_added;
      dial_dropped = dropped;
      dial_num_mailboxes = num_mailboxes;
      filter_bytes = Mailbox.sharded_size_bytes shards;
      calls;
    }
  in
  let stats, attempts = run_round t `Dialing ~phase ~round ~clients body in
  { stats with dial_attempts = attempts; calls = recovered @ stats.calls }
