(* Framed request/response RPC over TCP (DESIGN.md §13): length-prefixed
   binary streams on the shared {!Select_loop}. Differences from the HTTP
   listener:

   - connections are persistent: a client sends any number of request
     frames and receives one response frame per request, in order;
   - partial reads accumulate in the loop's input buffer, which is decoded
     only once it holds a whole frame, so reassembly stays linear;
   - a [Corrupt] verdict from the decoder drops the connection — framing
     errors are not recoverable mid-stream.

   Zero opam dependencies: Unix + the in-tree telemetry registry. *)

module Tel = Alpenhorn_telemetry.Telemetry

type handler = Framing.frame -> Framing.frame

type traced_handler = trace:(string * string) list option -> Framing.frame -> Framing.frame

let error_tag = 0xff

let error_frame msg = { Framing.tag = error_tag; payload = msg }

module Server = struct
  (* Per-tag telemetry handles, resolved once per tag per server: the
     registration path (Counter.v / Histogram.v) hashes, the hit path is a
     lone atomic or a histogram lock. *)
  type tag_metrics = {
    tm_calls : Tel.Counter.t;
    tm_seconds : Tel.Histogram.t;
    tm_bytes : Tel.Histogram.t;
  }

  type t = unit Select_loop.t

  let create_traced ?host ?backlog ?(max_payload = Framing.default_max_payload) ~port handler =
    let reg = Tel.default in
    let c_calls = Tel.Counter.v reg "rpc.calls" and c_errors = Tel.Counter.v reg "rpc.errors" in
    let by_tag = Hashtbl.create 16 (* loop-domain only *) in
    let tag_metrics tag =
      match Hashtbl.find_opt by_tag tag with
      | Some m -> m
      | None ->
        let labels = [ ("tag", Printf.sprintf "0x%02x" tag) ] in
        let m =
          {
            tm_calls = Tel.Counter.v reg ~labels "rpc.call";
            tm_seconds = Tel.Histogram.v reg ~labels "rpc.request_seconds";
            tm_bytes = Tel.Histogram.v reg ~labels "rpc.payload_bytes";
          }
        in
        Hashtbl.replace by_tag tag m;
        m
    in
    let dispatch req =
      Tel.Counter.inc c_calls;
      (* a trace envelope is transport framing, not protocol: unwrap it
         here so handlers and per-tag metrics see the inner request *)
      let trace, req =
        if req.Framing.tag = Framing.trace_tag then
          match Framing.split_traced ~max_payload req with
          | Some (labels, inner) -> (Some labels, inner)
          | None -> (None, req) (* malformed envelope: dispatch as-is, handler rejects *)
        else (None, req)
      in
      let m = tag_metrics req.Framing.tag in
      Tel.Counter.inc m.tm_calls;
      Tel.Histogram.observe m.tm_bytes (float_of_int (String.length req.Framing.payload));
      let t0 = Unix.gettimeofday () in
      let resp =
        try handler ~trace req
        with e ->
          Tel.Counter.inc c_errors;
          error_frame (Printexc.to_string e)
      in
      Tel.Histogram.observe m.tm_seconds (Unix.gettimeofday () -. t0);
      Framing.encode ~max_payload resp
    in
    (* Answer every complete frame in the input, then keep only the
       unfinished tail. A [Corrupt] verdict drops the connection: stream
       framing errors are not recoverable. *)
    let on_input c =
      let b = Select_loop.input c in
      let rec go pos =
        match Framing.decode_buffer ~max_payload b ~pos with
        | Framing.Frame (req, next) ->
          Select_loop.send c (dispatch req);
          go next
        | Framing.Need_more ->
          if pos > 0 then begin
            let rest = Buffer.sub b pos (Buffer.length b - pos) in
            Buffer.clear b;
            Buffer.add_string b rest
          end;
          Select_loop.Keep
        | Framing.Corrupt _ ->
          Tel.Counter.inc c_errors;
          Select_loop.Close
      in
      go 0
    in
    Select_loop.create ?host ?backlog ~port
      ~open_connections:(Tel.Gauge.v reg "rpc.open_connections")
      ~init:ignore ~on_input
      ~on_sent:(fun _ -> Select_loop.Keep)
      ()

  let create ?host ?backlog ?max_payload ~port handler =
    create_traced ?host ?backlog ?max_payload ~port (fun ~trace:_ req -> handler req)

  let port = Select_loop.port
  let poll = Select_loop.poll
  let run = Select_loop.run
  let stop = Select_loop.stop
  let close = Select_loop.close
end

module Client = struct
  type t = {
    fd : Unix.file_descr;
    max_payload : int;
    inbuf : Buffer.t;
    mutable closed : bool;
    mutable trace : (string * string) list option; (* consumed by the next call *)
  }

  let connect ?(timeout = 5.0) ?(max_payload = Framing.default_max_payload)
      ?(host = "127.0.0.1") ~port () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
    with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "connect %s:%d: %s" host port (Unix.error_message e))
    | () -> Ok { fd; max_payload; inbuf = Buffer.create 256; closed = false; trace = None }

  let set_trace t labels = t.trace <- labels

  let close t =
    if not t.closed then begin
      t.closed <- true;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end

  let write_all t s =
    let rec go off =
      if off >= String.length s then Ok ()
      else
        match Unix.write_substring t.fd s off (String.length s - off) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Error "write: timeout"
        | exception Unix.Unix_error (e, _, _) -> Error ("write: " ^ Unix.error_message e)
        | n -> go (off + n)
    in
    go 0

  (* Read until exactly one frame decodes; responses arrive strictly one
     per request, so leftover bytes belong to the next response's prefix. *)
  let read_frame t =
    let chunk = Bytes.create 4096 in
    let rec go () =
      match Framing.decode_buffer ~max_payload:t.max_payload t.inbuf ~pos:0 with
      | Framing.Frame (f, stop) ->
        let rest = Buffer.sub t.inbuf stop (Buffer.length t.inbuf - stop) in
        Buffer.clear t.inbuf;
        Buffer.add_string t.inbuf rest;
        Ok f
      | Framing.Corrupt m -> Error ("corrupt response: " ^ m)
      | Framing.Need_more -> (
        match Unix.read t.fd chunk 0 4096 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Error "read: timeout"
        | exception Unix.Unix_error (e, _, _) -> Error ("read: " ^ Unix.error_message e)
        | 0 -> Error "read: connection closed"
        | n ->
          Buffer.add_subbytes t.inbuf chunk 0 n;
          go ())
    in
    go ()

  let call t frame =
    if t.closed then Error "call on closed connection"
    else begin
      let trace = t.trace in
      t.trace <- None;
      match write_all t (Framing.encode_traced ~max_payload:t.max_payload ?trace frame) with
      | Error _ as e -> e
      | Ok () -> read_frame t
    end
end
