module Dh = Alpenhorn_dh.Dh
module Tel = Alpenhorn_telemetry.Telemetry
module Trace = Alpenhorn_telemetry.Trace
module Events = Alpenhorn_telemetry.Events

type batch = Traced of (string * Trace.ctx option) array | Plain of string array

let payloads = function Traced b -> Array.map fst b | Plain b -> b

type 'noise hop = {
  rotate : unit -> Dh.public option;
  process :
    downstream_pks:Dh.public list ->
    noise_mu:float ->
    laplace_b:float ->
    num_mailboxes:int ->
    noise:'noise ->
    tracer:Trace.t option ->
    batch ->
    (batch * int) option;
  erase : unit -> unit;
  is_up : unit -> bool;
  crash : unit -> unit;
  restart : unit -> unit;
}

let local server ~noise_body =
  let up () = not (Server.is_down server) in
  {
    rotate = (fun () -> if up () then Some (Server.new_round server) else None);
    process =
      (fun ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes ~noise ~tracer batch ->
        if not (up ()) then None
        else
          let out, added =
            Server.process_traced server ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes
              ~noise_body:(noise_body noise) ?tracer
              (match batch with Traced b -> b | Plain b -> Array.map (fun p -> (p, None)) b)
          in
          Some (Traced out, added));
    erase = (fun () -> Server.end_round server);
    is_up = up;
    crash = (fun () -> Server.crash server);
    restart = (fun () -> Server.restart server);
  }

(* [pks] holds the round keys from [begin_round] until they are erased. *)
type 'noise t = { hops : 'noise hop array; mutable pks : Dh.public array option }

exception Aborted of { server : int }

let create hops =
  if Array.length hops = 0 then invalid_arg "Chain.create: no hop";
  { hops; pks = None }

let erase t =
  Array.iter (fun h -> h.erase ()) t.hops;
  t.pks <- None

(* Anytrust: one dead server kills the round. Abort cleanly — every
   per-round key is erased, nothing reaches a mailbox (no partial
   publish) — and let the caller recover and re-run after backoff. *)
let abort t server =
  erase t;
  Events.log Events.default ~severity:Error
    ~labels:[ ("server", string_of_int server) ]
    ~detail:"server down mid-round; round keys erased, no mailboxes published"
    "mix.round_abort";
  raise (Aborted { server })

let begin_round t =
  let pks =
    Array.mapi (fun i h -> match h.rotate () with Some pk -> pk | None -> abort t i) t.hops
  in
  t.pks <- Some pks;
  Array.to_list pks

(* One pass of a batch over the whole chain: abort checks, the per-hop
   unwrap/noise/shuffle passes, key erasure, and the traced-publish
   bookkeeping. Distribution into mailboxes (or shards) is the caller's,
   on the final payloads. *)
let mix t ~noise_mu ~laplace_b ~num_mailboxes ~noise ?tracer batch =
  Tel.Span.with_ Tel.default "mix.round" @@ fun () ->
  Tel.Counter.inc (Tel.Counter.v Tel.default "mix.rounds");
  let pks = match t.pks with Some pks -> pks | None -> invalid_arg "Chain.mix: round not started" in
  let n = Array.length t.hops in
  Array.iteri (fun i h -> if not (h.is_up ()) then abort t i) t.hops;
  let total_noise = ref 0 in
  let current = ref (Traced batch) in
  for i = 0 to n - 1 do
    let downstream_pks = Array.to_list (Array.sub pks (i + 1) (n - i - 1)) in
    (* a hop can also go down mid-round (e.g. from a noise callback in
       the chaos tests, or a mixer process dying mid-call) *)
    match
      Tel.Span.with_ Tel.default
        ~labels:[ ("server", string_of_int i) ]
        "mix.server_process"
        (fun () ->
          t.hops.(i).process ~downstream_pks ~noise_mu ~laplace_b ~num_mailboxes ~noise ~tracer
            !current)
    with
    | None -> abort t i
    | Some (out, added) ->
      total_noise := !total_noise + added;
      current := out
  done;
  erase t;
  (* A traced payload that survived the whole chain lands in a mailbox:
     record the publish hop and hand back (mailbox, ctx) so the caller
     can stitch the recipient's scan onto the same trace. *)
  let published =
    match (tracer, !current) with
    | None, _ | _, Plain _ -> []
    | Some tr, Traced out ->
      Array.to_list out
      |> List.filter_map (fun (payload, ctx) ->
             match ctx with
             | None -> None
             | Some c -> (
               match Payload.decode payload with
               | Some (mb, _) when mb >= 0 && mb < num_mailboxes ->
                 let child = Trace.child tr c in
                 let now = Tel.now Tel.default in
                 Trace.emit tr child
                   ~labels:[ ("mailbox", string_of_int mb) ]
                   ~name:"mailbox.publish" ~ts:now ~dur:0.0 ();
                 Some (mb, child)
               | Some _ | None -> None))
  in
  (payloads !current, !total_noise, published)

let crash_server t ~server = t.hops.(server).crash ()

(* An abort in [begin_round] or [mix] has erased the keys already; one
   raised between the two (a stall past the round timeout) has not. *)
let recover t =
  if Option.is_some t.pks then erase t;
  Array.iter (fun h -> h.restart ()) t.hops
