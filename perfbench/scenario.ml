(* The round-pair scenario both pair workloads run, whatever drives the
   rounds (the library's deployment or the benchmark's own layer-by-layer
   driver, layered.ml), plus the checks that feed [failed].

   n clients (n divisible by 4) split into groups A = [0, n/2) and
   B = [n/2, n). Call partners are i and i xor 1, always inside one group.
   Add-friend churn runs only across groups: in add-friend round r every
   A_i asks B_((i + r mod 2) mod n/2), and every B confirms the request it
   accepted in round r - 1. So once set-up is done, every add-friend round
   carries exactly n real messages (n/2 requests, n/2 confirmations) and
   every dialing round exactly n calls, and re-keying a churn friendship
   never touches the keywheel entry of a call pair. *)

module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment
module Pkg = Alpenhorn_pkg.Pkg

type af_result = {
  events : (string * Client.af_event) list;
  af_download : int;  (** bytes of the largest add-friend mailbox *)
}

type runner = {
  addfriend : unit -> af_result;
  dialing : unit -> int;  (** bytes of the largest dialing filter *)
}

type tally = { mutable attempted : int; mutable failed : int }

(* Deployment's §6 mailbox count for a round with [clients] submitters. *)
let num_mailboxes ~config ~clients ~noise_mu =
  Alpenhorn_mixnet.Mailbox.num_mailboxes_for
    ~expected_real:
      (int_of_float (Float.round (float_of_int clients *. config.Alpenhorn_core.Config.active_fraction)))
    ~noise_mu ~chain_length:config.Alpenhorn_core.Config.chain_length

let email i = Printf.sprintf "u%02d@perfbench.example" i

(* Calls as the callbacks saw them: (caller, callee, intent, session key). *)
type log = {
  mutable placed : (string * string * int * string) list;
  mutable received : (string * string * int * string) list;
}

let callbacks log ~self =
  {
    Client.new_friend = (fun ~email:_ ~key:_ -> true);
    confirmed_friend = (fun ~email:_ -> ());
    incoming_call =
      (fun ~email ~intent ~session_key ->
        log.received <- (email, self, intent, session_key) :: log.received);
    call_placed =
      (fun ~email ~intent ~session_key ->
        log.placed <- (self, email, intent, session_key) :: log.placed);
  }

type t = {
  clients : Client.t array;
  log : log;
  tally : tally;
  max_intents : int;
  runner : runner;
  mutable af_count : int;
  mutable dial_count : int;
  mutable pending : (int * int) list; (* accepted requests awaiting confirmation *)
}

(* [n] clients from [make_client], wired to a fresh call log, with rounds
   driven by [runner clients]. *)
let create ~n ~max_intents ~make_client ~runner =
  if n mod 4 <> 0 then invalid_arg "Scenario.create: clients must be 4k";
  let log = { placed = []; received = [] } in
  let clients =
    Array.init n (fun i ->
        let email = email i in
        make_client ~email ~callbacks:(callbacks log ~self:email))
  in
  {
    clients;
    log;
    tally = { attempted = 0; failed = 0 };
    max_intents;
    runner = runner clients;
    af_count = 0;
    dial_count = 0;
    pending = [];
  }

let largest a = Array.fold_left max 0 a

(* A runner over a library driver's rounds ([Deployment] or
   [Net_deployment]). *)
let library_runner ~addfriend ~dialing =
  {
    addfriend =
      (fun () ->
        let s = addfriend () in
        { events = s.Deployment.events; af_download = largest s.Deployment.mailbox_bytes });
    dialing = (fun () -> largest (dialing ()).Deployment.filter_bytes);
  }

let registered = function Ok () -> () | Error e -> failwith ("register: " ^ Pkg.error_to_string e)

let half t = Array.length t.clients / 2
let partner i = i lxor 1

(* A round the retry policy gave up on fails every operation it carried. *)
let run_round t f ~ops =
  match f () with
  | v -> Some v
  | exception Deployment.Round_failed { phase; round; attempts } ->
    Printf.eprintf "perfbench: %s round %d failed after %d attempts\n%!" phase round attempts;
    t.tally.failed <- t.tally.failed + ops;
    None

let addfriend t requests =
  List.iter (fun (a, b) -> Client.add_friend t.clients.(a) ~email:(email b) ()) requests;
  t.af_count <- t.af_count + 1;
  t.tally.attempted <- t.tally.attempted + List.length requests;
  match run_round t t.runner.addfriend ~ops:(List.length requests + List.length t.pending) with
  | None ->
    t.pending <- [];
    0
  | Some r ->
    let has who ev = List.mem (email who, ev) r.events in
    let unconfirmed =
      List.filter (fun (a, b) -> not (has a (Client.Friend_confirmed (email b)))) t.pending
    in
    let accepted, refused =
      List.partition (fun (a, b) -> has b (Client.Friend_request_accepted (email a))) requests
    in
    t.tally.failed <- t.tally.failed + List.length unconfirmed + List.length refused;
    t.pending <- accepted;
    r.af_download

let churn t =
  let h = half t in
  List.init h (fun i -> (i, h + ((i + (t.af_count + 1) land 1) mod h)))

let dialing t ~calls =
  t.dial_count <- t.dial_count + 1;
  let intent = t.dial_count mod t.max_intents in
  let n = Array.length t.clients in
  if calls then
    Array.iteri (fun i c -> Client.call c ~email:(email (partner i)) ~intent) t.clients;
  t.log.placed <- [];
  t.log.received <- [];
  if calls then t.tally.attempted <- t.tally.attempted + n;
  match run_round t t.runner.dialing ~ops:(if calls then n else 0) with
  | None -> 0
  | Some download ->
    (* each call reached its callee with the key its caller was given *)
    if calls then
      for i = 0 to n - 1 do
        let caller = email i and callee = email (partner i) in
        let ok =
          match
            List.filter (fun (a, b, k, _) -> a = caller && b = callee && k = intent) t.log.placed
          with
          | [ (_, _, _, key) ] -> List.mem (caller, callee, intent, key) t.log.received
          | _ -> false
        in
        if not ok then t.tally.failed <- t.tally.failed + 1
      done;
    download

(* Friendships before timing starts: the call pairs (request, then
   confirmation), and one churn round so the measured rounds all run at
   the steady n real messages. The dialing rounds between them carry
   calls once the call pairs' keywheel entries are live. *)
let set_up t =
  let n = Array.length t.clients in
  ignore (addfriend t (List.init (n / 2) (fun j -> (2 * j, (2 * j) + 1))));
  ignore (dialing t ~calls:false);
  ignore (addfriend t []);
  ignore (dialing t ~calls:true);
  ignore (addfriend t (churn t));
  ignore (dialing t ~calls:true)

type pair = { af : Common.window; dial : Common.window; af_bytes : int; dial_bytes : int }

(* One measured round pair, [addfriend] then [dialing] (each returns the
   bytes one client downloads), each phase its own timed window. *)
let timed_pair ~addfriend ~dialing =
  let af_bytes, af = Common.timed addfriend in
  let dial_bytes, dial = Common.timed dialing in
  { af; dial; af_bytes; dial_bytes }

let pair t = timed_pair ~addfriend:(fun () -> addfriend t (churn t)) ~dialing:(fun () -> dialing t ~calls:true)

(* Progress on stderr, printed outside every measured window. *)
let logged p =
  Printf.eprintf "pair: addfriend %.3f s (%.3f s at reference speed), dialing %.3f s (%.3f s)\n%!"
    p.af.wall_s p.af.scaled_s p.dial.wall_s p.dial.scaled_s;
  p

let tally t = (t.tally.attempted, t.tally.failed)

(* The pair metrics of a run: medians over its round pairs, round times at
   the reference speed (common.ml). *)
let metrics pairs =
  let med f = Common.median (List.map f pairs) in
  [
    ("addfriend_round_s", med (fun p -> p.af.scaled_s));
    ("dialing_round_s", med (fun p -> p.dial.scaled_s));
    ("alloc_mwords", med (fun p -> (p.af.words +. p.dial.words) /. 1e6));
    ("client_download_bytes", med (fun p -> float_of_int (p.af_bytes + p.dial_bytes)));
  ]

(* ---- traced runs ---- *)

(* Alternate untraced and traced round pairs of one driver, [pair ()],
   whose spans go to [tr]; [around] wraps each traced pair outside its
   timing, and [started] runs once the warm-up pairs are done. Returns
   both pair lists, in run order, and the collections seen during the
   traced pairs. *)
let traced_pairs ?(around = fun f -> f ()) ?(started = ignore) ~seconds ~pair tr =
  let gc = Common.gc_meter () in
  let untraced, traced =
    Common.alternate
      ~started:(fun () ->
        Spans.reset tr;
        Common.gc_reset gc;
        started ())
      ~seconds ~min:2
      (fun () -> logged (pair ()))
      (fun () ->
        logged (around (fun () -> Common.gc_metered gc (fun () -> Spans.traced tr pair))))
  in
  (untraced, traced, gc)

(* Span coverage of the traced round wall time; the tracing cost, as the
   median over alternating pairs of traced / untraced pair time (at the
   reference speed); the median wall times of the untraced rounds and of
   the reference runs around them. *)
let trace_metrics tr ~untraced ~traced =
  let wall p = p.af.Common.wall_s +. p.dial.Common.wall_s in
  let scaled p = p.af.Common.scaled_s +. p.dial.Common.scaled_s in
  let traced_wall = List.fold_left (fun acc p -> acc +. wall p) 0.0 traced in
  let med f = Common.median (List.map f untraced) in
  [
    ("trace.coverage", Spans.covered_s tr /. traced_wall);
    ( "trace.overhead_frac",
      Common.median (List.map2 (fun t u -> scaled t /. scaled u) traced untraced) -. 1.0 );
    ("round.addfriend_wall_s", med (fun p -> p.af.Common.wall_s));
    ("round.dialing_wall_s", med (fun p -> p.dial.Common.wall_s));
    ("host.reference_ms", med (fun p -> p.af.Common.reference_s *. 1e3));
  ]

(* The pair workloads' layer spans, as per-pair metrics. *)
let layer_metrics tr ~pairs =
  Common.layer_metrics tr ~pairs
    ~seconds:
      [
        ("pkg.rotate_s", "pkg.rotate");
        ("pkg.extract_s", "pkg.extract");
        ("client.begin_addfriend_s", "client.begin_addfriend");
        ("client.submit_s", "client.submit");
        ("mixnet.hop_s", "mixnet.hop");
        ("mixnet.keys_s", "mixnet.keys");
        ("mixnet.noise_s", "mixnet.noise");
        ("mailbox.distribute_s", "mailbox.distribute");
        ("client.scan_addfriend_s", "client.scan_addfriend");
        ("client.scan_dialing_s", "client.scan_dialing");
      ]
    ~mwords:
      [
        ("pkg.extract_mwords", "pkg.extract");
        ("client.submit_mwords", "client.submit");
        ("mixnet.hop_mwords", "mixnet.hop");
        ("client.scan_addfriend_mwords", "client.scan_addfriend");
      ]
