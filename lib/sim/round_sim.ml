module Faults = Alpenhorn_core.Faults
module Tel = Alpenhorn_telemetry.Telemetry
module Trace = Alpenhorn_telemetry.Trace
module Events = Alpenhorn_telemetry.Events
module Runtime_stats = Alpenhorn_telemetry.Runtime_stats
module Timeseries = Alpenhorn_telemetry.Timeseries

type timeline = {
  server_done : float array;
  publish : float;
  client_done : float;
  attempts : int;
  completed : bool;
}

(* One round: [batch0] messages enter server 0 at t = 0 in [chunks] equal
   parts. Each server has a single processing pipeline (it works on one
   chunk at a time, in arrival order) and forwards each finished chunk
   after a link delay. Noise generation happens once per server, amortized
   into its first chunk. The last server publishes when its final chunk is
   done; the client then downloads and scans.

   The replay emits the same telemetry schema as a real deployment round
   (counter/histogram names match {!Alpenhorn_mixnet.Server}), but on the
   DES clock: spans carry simulated timestamps, and per-hop counters hold
   the modeled message counts. [scan_metric]/[scan_ops] name and size the
   client-side scan counter ("client.scan_attempts" = IBE decryptions for
   add-friend, "client.dial_tokens_checked" for dialing).

   When a [tracer] is supplied, one candidate message riding chunk 0 is
   offered to its sampler; if sampled, its causal path — client.submit →
   mix.hop per server → mailbox.publish → client.scan — is recorded as
   trace-labeled spans stitched by parent span ids. The context rides the
   chunk as an OCaml value only; modeled message sizes and counts are
   unchanged (trace contexts never touch the wire, DESIGN.md §9).

   With a [faults] schedule (DESIGN.md §10) each attempt runs through
   {!Faults.retry} on the same DES clock: a chunk arriving at a crashed
   server aborts the whole attempt (anytrust, §4.5 — nothing publishes),
   the round backs off deterministically and re-runs; a stalled
   server delays its first chunk (or aborts, past the policy's round
   timeout); link latency multiplies a server's outbound transfer time and
   link loss thins its outbound chunks. Same schedule, same seed ⇒ the
   same failure trace and byte-identical event log. Without faults the
   code path is exactly the no-fault one — same floats, same events, no
   extra labels. *)
let replay (m : Costmodel.machine) ?tracer ?(events = Events.default) ?(faults = Faults.empty)
    ?(fault_round = 1) ?(policy = Faults.default_policy) ~phase ~scan_metric ~scan_ops ~n_servers
    ~batch0 ~noise_per_server ~t_noise ~msg_bytes ~mailbox_bytes ~mailbox_load ~scan_seconds
    ~chunks () =
  if chunks < 1 then invalid_arg "Round_sim: chunks";
  Faults.validate_policy policy;
  let have_faults = not (Faults.is_empty faults) in
  let des = Des.create () in
  let reg = Tel.default in
  let labels i = [ ("server", string_of_int i) ] in
  let c_in = Array.init n_servers (fun i -> Tel.Counter.v reg ~labels:(labels i) "mix.onions_in") in
  let c_out =
    Array.init n_servers (fun i -> Tel.Counter.v reg ~labels:(labels i) "mix.onions_out")
  in
  let c_noise =
    Array.init n_servers (fun i -> Tel.Counter.v reg ~labels:(labels i) "mix.noise_generated")
  in
  let h_unwrap =
    Array.init n_servers (fun i -> Tel.Histogram.v reg ~labels:(labels i) "mix.unwrap_seconds")
  in
  let c_scan = Tel.Counter.v reg scan_metric in
  let c_injected kind = Tel.Counter.v reg ~labels:[ ("kind", kind) ] "faults.injected" in
  let g_pending = Tel.Gauge.v reg "sim.des_pending" in
  let g_pending_max = Tel.Gauge.v reg "sim.des_pending_max" in
  let g_mailbox_load = Tel.Gauge.v reg "mailbox.max_load" in
  let round_int x = int_of_float (Float.round x) in
  let server_done = Array.make n_servers 0.0 in
  let publish = ref 0.0 and client_done = ref 0.0 in
  (* per-server: when its pipeline becomes free *)
  let free_at = Array.make n_servers 0.0 in
  let chunks_seen = Array.make n_servers 0 in
  (* when the running attempt aborted, on the DES clock *)
  let aborted = ref None in
  let sample_queue_depth () =
    Tel.Gauge.set g_pending (float_of_int (Des.pending des));
    Tel.Gauge.set g_pending_max (float_of_int (Des.max_pending des))
  in
  let trace_emit ctx ?labels name ~ts ~dur =
    match tracer with Some tr -> Trace.emit tr ctx ?labels ~name ~ts ~dur () | None -> ()
  in
  let trace_child ctx =
    match (tracer, ctx) with Some tr, Some c -> Some (Trace.child tr c) | _ -> None
  in
  (* the traced message's mailbox-publish context, kept so the scan span
     can parent to it even when publish waits for a later chunk *)
  let traced_mb = ref None in
  let abort_attempt ~attempt ~severity ~labels:ls ~detail name =
    aborted := Some (Des.now des);
    Events.log events ~severity ~labels:(("attempt", string_of_int attempt) :: ls) ~detail name;
    sample_queue_depth ()
  in
  (* messages per chunk grows along the chain as servers add noise *)
  let rec deliver ~attempt server chunk_msgs chunk_index trace =
    if !aborted <> None then sample_queue_depth () (* a sibling chunk already killed the attempt *)
    else if Faults.crash_attempts faults ~round:fault_round ~server >= attempt then begin
      Tel.Counter.inc (c_injected "crash");
      abort_attempt ~attempt ~severity:Events.Error ~labels:(labels server)
        ~detail:"server down mid-round; round aborted, no mailboxes published" "mix.round_abort"
    end
    else begin
      let first_chunk = chunks_seen.(server) = 0 in
      let stall =
        if attempt = 1 then Faults.stall_seconds faults ~round:fault_round ~server else 0.0
      in
      if first_chunk && stall > policy.Faults.round_timeout then begin
        Tel.Counter.inc (c_injected "stall");
        abort_attempt ~attempt ~severity:Events.Warn ~labels:(labels server)
          ~detail:
            (Printf.sprintf "stall of %g s exceeds the %g s round timeout; aborting" stall
               policy.Faults.round_timeout)
          "round.timeout"
      end
      else begin
        if first_chunk && stall > 0.0 then begin
          Tel.Counter.inc (c_injected "stall");
          Events.log events ~severity:Warn
            ~labels:(("attempt", string_of_int attempt) :: labels server)
            ~detail:(Printf.sprintf "server stalled %g s before processing" stall)
            "round.stall"
        end;
        let unwrap_seconds = chunk_msgs *. m.Costmodel.t_unwrap /. float_of_int m.Costmodel.cores in
        (* amortize this server's noise generation into its first chunk *)
        let noise_seconds =
          if first_chunk then noise_per_server *. t_noise /. float_of_int m.Costmodel.cores
          else 0.0
        in
        let proc_seconds = unwrap_seconds +. noise_seconds in
        chunks_seen.(server) <- chunks_seen.(server) + 1;
        let start =
          Stdlib.max (Des.now des) free_at.(server) +. (if first_chunk then stall else 0.0)
        in
        let finish = start +. proc_seconds in
        free_at.(server) <- finish;
        server_done.(server) <- finish;
        Tel.Counter.add c_in.(server) (round_int chunk_msgs);
        Tel.Histogram.observe h_unwrap.(server) unwrap_seconds;
        if first_chunk then Tel.Counter.add c_noise.(server) (round_int noise_per_server);
        Tel.Span.emit reg ~labels:(labels server) ~depth:1 ~name:"mix.server_process" ~ts:start
          ~dur:proc_seconds ();
        let hop = trace_child trace in
        Option.iter
          (fun ctx -> trace_emit ctx ~labels:(labels server) "mix.hop" ~ts:start ~dur:proc_seconds)
          hop;
        let out_msgs = chunk_msgs +. (noise_per_server /. float_of_int chunks) in
        Tel.Counter.add c_out.(server) (round_int out_msgs);
        let loss = Faults.loss_fraction faults ~round:fault_round ~server in
        if first_chunk && loss > 0.0 then Tel.Counter.inc (c_injected "loss");
        let forwarded = out_msgs *. (1.0 -. loss) in
        let lat = Faults.latency_factor faults ~round:fault_round ~server in
        if first_chunk && lat > 1.0 then Tel.Counter.inc (c_injected "latency");
        let transfer = forwarded *. msg_bytes /. m.Costmodel.link_bandwidth *. lat in
        let arrival = finish +. transfer +. (m.Costmodel.rtt /. 2.0) in
        let chunk_labels =
          if have_faults then
            ("attempt", string_of_int attempt) :: ("chunk", string_of_int chunk_index)
            :: labels server
          else ("chunk", string_of_int chunk_index) :: labels server
        in
        Events.log events ~severity:Debug ~labels:chunk_labels
          ~detail:(Printf.sprintf "%d messages" (round_int forwarded))
          "sim.chunk_forward";
        if server + 1 < n_servers then
          Des.schedule des ~at:arrival (fun () ->
              deliver ~attempt (server + 1) forwarded chunk_index hop)
        else begin
          (* last server: chunk lands in the mailboxes; publish after the final
             chunk, then the client downloads and scans *)
          Des.schedule des ~at:arrival (fun () ->
              if !aborted = None then begin
                (match trace_child hop with
                | Some ctx ->
                  trace_emit ctx "mailbox.publish" ~ts:(Des.now des) ~dur:0.0;
                  traced_mb := Some ctx
                | None -> ());
                if chunk_index = chunks - 1 then begin
                  publish := Des.now des;
                  Events.log events ~labels:[ ("phase", phase) ] "round.publish";
                  Timeseries.record Timeseries.default;
                  let download = mailbox_bytes /. m.Costmodel.client_bandwidth in
                  Tel.Span.emit reg ~depth:1 ~name:"client.download" ~ts:!publish ~dur:download ();
                  Tel.Span.emit reg ~depth:1 ~name:"client.scan" ~ts:(!publish +. download)
                    ~dur:scan_seconds ();
                  (match trace_child !traced_mb with
                  | Some ctx ->
                    trace_emit ctx "client.scan" ~ts:(!publish +. download) ~dur:scan_seconds
                  | None -> ());
                  Tel.Counter.add c_scan (round_int scan_ops);
                  Des.after des ~delay:(download +. scan_seconds) (fun () ->
                      client_done := Des.now des;
                      sample_queue_depth ())
                end
              end;
              sample_queue_depth ())
        end;
        sample_queue_depth ()
      end
    end
  in
  Tel.with_clock reg ~kind:"sim" (fun () -> Des.now des) (fun () ->
      Events.log events
        ~labels:[ ("phase", phase) ]
        ~detail:(Printf.sprintf "%d messages in %d chunks over %d servers" batch0 chunks n_servers)
        "round.start";
      (* time-series baseline at simulated t=0 (windowed queries need the
         pair [start, close]); the ring detects a restarted sim clock and
         starts a new epoch by itself *)
      Timeseries.record Timeseries.default;
      Tel.Gauge.set g_mailbox_load mailbox_load;
      let per_chunk = float_of_int batch0 /. float_of_int chunks in
      let attempt n =
        aborted := None;
        let start_at = Des.now des in
        Array.fill free_at 0 n_servers start_at;
        Array.fill chunks_seen 0 n_servers 0;
        traced_mb := None;
        let root =
          (* one candidate message (riding chunk 0) offered to the sampler *)
          match tracer with Some tr -> Trace.sample tr | None -> None
        in
        Option.iter (fun ctx -> trace_emit ctx "client.submit" ~ts:start_at ~dur:0.0) root;
        for i = 0 to chunks - 1 do
          let trace = if i = 0 then root else None in
          Des.schedule des ~at:start_at (fun () -> deliver ~attempt:n 0 per_chunk i trace)
        done;
        Des.run des;
        sample_queue_depth ();
        match !aborted with None -> Ok ((), !publish) | Some at -> Error at
      in
      let wait delay =
        Des.after des ~delay ignore;
        Des.run des
      in
      let published, attempts =
        Faults.retry faults policy ~events ~phase ~round:fault_round
          ~labels:[ ("phase", phase) ]
          ~wait attempt
      in
      let completed = published <> None in
      Tel.Span.emit reg ~name:("round." ^ phase) ~ts:0.0 ~dur:!client_done ();
      if completed then
        Tel.Counter.inc
          (Tel.Counter.v reg ~labels:[ ("phase", phase) ] "round.completed");
      Runtime_stats.sample (Runtime_stats.get_default ());
      Timeseries.record Timeseries.default;
      Events.log events
        ~labels:[ ("phase", phase) ]
        ~detail:
          (if completed then Printf.sprintf "client done at %g s" !client_done
           else Printf.sprintf "round failed after %d attempts" attempts)
        "round.close";
      { server_done; publish = !publish; client_done = !client_done; attempts; completed })

let addfriend m ?tracer ?events ?faults ?fault_round ?policy (pc : Costmodel.protocol_costs)
    ~n_users ~n_servers ~noise_mu ~active_fraction ~chunks =
  let plan = Costmodel.round_plan ~n_users ~n_servers ~noise_mu ~active_fraction ~shards:0 in
  let requests_in_mailbox = plan.mailbox_load in
  replay m ?tracer ?events ?faults ?fault_round ?policy ~phase:"addfriend"
    ~scan_metric:"client.scan_attempts" ~scan_ops:requests_in_mailbox ~n_servers ~batch0:n_users
    ~noise_per_server:(noise_mu *. float_of_int plan.num_mailboxes)
    ~t_noise:m.Costmodel.t_ibe_encrypt
    ~msg_bytes:(float_of_int (pc.Costmodel.request_bytes + pc.Costmodel.payload_header_bytes))
    ~mailbox_bytes:(requests_in_mailbox *. float_of_int pc.Costmodel.request_bytes)
    ~mailbox_load:requests_in_mailbox
    ~scan_seconds:(Costmodel.addfriend_scan_seconds m ~requests:requests_in_mailbox)
    ~chunks ()

let dialing m ?tracer ?events ?faults ?fault_round ?policy ?(num_shards = 0)
    (pc : Costmodel.protocol_costs) ~n_users ~n_servers ~noise_mu ~active_fraction ~friends
    ~intents ~chunks =
  let plan =
    Costmodel.round_plan ~n_users ~n_servers ~noise_mu ~active_fraction ~shards:num_shards
  in
  (* Sharded download (§5.1): the client fetches the Bloom filter of its
     whole shard — K/S mailboxes' worth of tokens — instead of one
     mailbox's. Per-mailbox load (the §6 ceiling) is unchanged. *)
  let mailbox_bytes = plan.shard_load *. float_of_int pc.Costmodel.bloom_bits_per_token /. 8.0 in
  if num_shards > 0 then begin
    Tel.Gauge.set (Tel.Gauge.v Tel.default "scale.shards") (float_of_int num_shards);
    Tel.Gauge.set (Tel.Gauge.v Tel.default "scale.bytes_per_client") mailbox_bytes
  end;
  let scan_ops = float_of_int (friends * intents) in
  replay m ?tracer ?events ?faults ?fault_round ?policy ~phase:"dialing"
    ~scan_metric:"client.dial_tokens_checked" ~scan_ops ~n_servers ~batch0:n_users
    ~noise_per_server:(noise_mu *. float_of_int plan.num_mailboxes)
    ~t_noise:m.Costmodel.t_token
    ~msg_bytes:(float_of_int (pc.Costmodel.dial_token_bytes + pc.Costmodel.payload_header_bytes))
    ~mailbox_bytes ~mailbox_load:plan.mailbox_load
    ~scan_seconds:(Costmodel.dialing_scan_seconds m ~tokens:scan_ops)
    ~chunks ()
