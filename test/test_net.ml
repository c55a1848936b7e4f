(* Wire-protocol tests: the framing codec, framed RPC over real sockets,
   the HTTP listener fed one byte at a time, and Net_deployment rounds over
   a Fleet of servers on domains — a mixer server killed mid-round and
   restarted, sharded dialing, and an archive catch-up — each checked
   against the in-process deployment.
   Every socket in this file is a real TCP socket on localhost. *)

module F = Alpenhorn_net.Framing
module Codec = Alpenhorn_codec.Codec
module Rpc = Alpenhorn_net.Rpc
module Listener = Alpenhorn_net.Listener
module Fleet = Alpenhorn_remote.Fleet
module Faults = Alpenhorn_core.Faults
module Config = Alpenhorn_core.Config
module Client = Alpenhorn_core.Client
module Deployment = Alpenhorn_core.Deployment

(* ---------- framing ---------- *)

let frame = Alcotest.testable (fun fmt (f : F.frame) ->
    Format.fprintf fmt "{tag=%d; payload=%S}" f.F.tag f.F.payload)
    (fun a b -> a.F.tag = b.F.tag && String.equal a.F.payload b.F.payload)

let framing_tests =
  [
    Alcotest.test_case "encode/decode roundtrip incl. tag boundaries" `Quick (fun () ->
        let payloads = [ ""; "x"; String.init 1000 (fun i -> Char.chr (i land 0xff)) ] in
        List.iter
          (fun tag ->
            List.iter
              (fun payload ->
                let f = { F.tag; payload } in
                match F.of_string (F.encode f) with
                | Some got -> Alcotest.check frame "roundtrip" f got
                | None -> Alcotest.failf "tag %d payload %d bytes: decode failed" tag
                            (String.length payload))
              payloads)
          [ 0; 7; 255 ];
        (* two concatenated frames decode in sequence at the right offsets *)
        let f1 = { F.tag = 1; payload = "abc" } and f2 = { F.tag = 2; payload = "" } in
        let s = F.encode f1 ^ F.encode f2 in
        (match F.decode s ~pos:0 with
         | F.Frame (got, off) ->
           Alcotest.check frame "first" f1 got;
           (match F.decode s ~pos:off with
            | F.Frame (got2, off2) ->
              Alcotest.check frame "second" f2 got2;
              Alcotest.(check int) "consumed all" (String.length s) off2
            | _ -> Alcotest.fail "second frame did not decode")
         | _ -> Alcotest.fail "first frame did not decode"));
    Alcotest.test_case "every truncation is Need_more, never Corrupt" `Quick (fun () ->
        let full = F.encode { F.tag = 9; payload = "hello" } in
        for i = 0 to String.length full - 1 do
          match F.decode (String.sub full 0 i) ~pos:0 with
          | F.Need_more -> ()
          | F.Frame _ -> Alcotest.failf "prefix %d decoded a frame" i
          | F.Corrupt msg -> Alcotest.failf "prefix %d corrupt: %s" i msg
        done;
        (* a cursor exactly at the end of the buffer just wants more bytes *)
        match F.decode full ~pos:(String.length full) with
        | F.Need_more -> ()
        | _ -> Alcotest.fail "pos at end must be Need_more");
    Alcotest.test_case "zero length, oversize and trailing bytes are rejected" `Quick (fun () ->
        (* len counts the tag byte, so 0 can never frame anything *)
        (match F.decode "\x00\x00\x00\x00" ~pos:0 with
         | F.Corrupt _ -> ()
         | _ -> Alcotest.fail "len=0 must be Corrupt");
        (match F.decode "\xff\xff\xff\xff!!!!" ~pos:0 with
         | F.Corrupt _ -> ()
         | _ -> Alcotest.fail "absurd length must be Corrupt before buffering");
        (* a per-connection ceiling rejects frames the default would allow *)
        let big = F.encode { F.tag = 3; payload = String.make 64 'p' } in
        (match F.decode ~max_payload:16 big ~pos:0 with
         | F.Corrupt _ -> ()
         | _ -> Alcotest.fail "payload above max_payload must be Corrupt");
        Alcotest.check_raises "encode refuses oversize"
          (Invalid_argument "Framing.encode: payload too large")
          (fun () -> ignore (F.encode ~max_payload:16 { F.tag = 3; payload = String.make 64 'p' }));
        (* of_string is exact: no trailing garbage, no empty input *)
        Alcotest.(check bool) "trailing byte" true
          (F.of_string (F.encode { F.tag = 1; payload = "a" } ^ "z") = None);
        Alcotest.(check bool) "empty" true (F.of_string "" = None);
        (match F.decode "abcd" ~pos:9 with
         | F.Corrupt _ -> ()
         | _ -> Alcotest.fail "pos past the buffer must be Corrupt"));
    Alcotest.test_case "Fields: roundtrip, trailing detection, hostile headers" `Quick (fun () ->
        let fields = Codec.(pair (tup4 u8 u32 f64 str) (list str)) in
        let wire = Codec.encode fields ((200, 123_456_789, 3.5, "hello"), [ "a"; ""; "bb" ]) in
        (match Codec.decode fields wire with
        | None -> Alcotest.fail "fields did not decode"
        | Some ((u8, u32, f64, str), strs) ->
          Alcotest.(check int) "u8" 200 u8;
          Alcotest.(check int) "u32" 123_456_789 u32;
          Alcotest.(check bool) "f64" true (f64 = 3.5);
          Alcotest.(check string) "str" "hello" str;
          Alcotest.(check bool) "strs" true (strs = [ "a"; ""; "bb" ]));
        (* a decode consumes every byte, and reading one more field fails *)
        Alcotest.(check bool) "finished" true (Codec.decode fields wire <> None);
        Alcotest.(check bool) "read past end" true (Codec.decode Codec.(pair fields u8) wire = None);
        (* a trailing byte is rejected, not silently dropped *)
        Alcotest.(check (option int)) "one byte" (Some 5) (Codec.decode Codec.u8 "\x05");
        Alcotest.(check (option int)) "not finished" None (Codec.decode Codec.u8 "\x05x");
        (* a list header claiming 2^24 entries backed by 0 bytes must not
           allocate or loop — the count is bounded by the remaining bytes *)
        Alcotest.(check bool) "hostile strs header" true
          (Codec.decode Codec.(list str) (Codec.encode Codec.u32 0xFF_FF_FF) = None);
        Alcotest.(check (option int)) "short u32" None (Codec.decode Codec.u32 "ab");
        Alcotest.(check (option string)) "str length past end" None
          (Codec.decode Codec.str "\x00\x00\x00\x09abc"));
  ]

(* ---------- trace envelope (DESIGN.md §14) ---------- *)

module Tel = Alpenhorn_telemetry.Telemetry

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let trace_envelope_tests =
  [
    Alcotest.test_case "envelope roundtrip; absent trace is byte-identical" `Quick (fun () ->
        let frames =
          [
            { F.tag = 0; payload = "" };
            { F.tag = 0x22; payload = String.init 257 (fun i -> Char.chr (i land 0xff)) };
            { F.tag = 255; payload = "x" };
          ]
        in
        (* the acceptance-criteria identity: no trace, no byte changes *)
        List.iter
          (fun f ->
            Alcotest.(check string) "encode_traced ~trace:None = encode" (F.encode f)
              (F.encode_traced f))
          frames;
        let labels = [ ("parent", "3"); ("trace", "7"); ("span", "9"); ("empty", "") ] in
        List.iter
          (fun f ->
            let wire = F.encode_traced ~trace:labels f in
            match F.of_string wire with
            | None -> Alcotest.fail "envelope did not decode as a frame"
            | Some env ->
              Alcotest.(check int) "wrapper tag" F.trace_tag env.F.tag;
              (* the inner bytes are exactly [encode f]: the protocol
                 payload a handler sees cannot depend on tracing *)
              let enc = F.encode f in
              let tail =
                String.sub env.F.payload
                  (String.length env.F.payload - String.length enc)
                  (String.length enc)
              in
              Alcotest.(check string) "inner encoding rides verbatim" enc tail;
              (match F.split_traced env with
              | None -> Alcotest.fail "split_traced rejected a valid envelope"
              | Some (got_labels, inner) ->
                Alcotest.(check bool) "labels" true (got_labels = labels);
                Alcotest.check frame "inner frame" f inner))
          frames);
    Alcotest.test_case "envelope rejects non-envelopes, truncation, nesting" `Quick (fun () ->
        (* a plain frame is not an envelope *)
        Alcotest.(check bool) "plain frame" true
          (F.split_traced { F.tag = 0x22; payload = "data" } = None);
        (* count claims one pair, zero bytes follow *)
        Alcotest.(check bool) "truncated labels" true
          (F.split_traced { F.tag = F.trace_tag; payload = "\x00\x00\x00\x01" } = None);
        (* labels parse but no inner frame follows *)
        Alcotest.(check bool) "no inner frame" true
          (F.split_traced { F.tag = F.trace_tag; payload = "\x00\x00\x00\x00" } = None);
        (* hostile pair count bounded by remaining bytes, no allocation *)
        Alcotest.(check bool) "hostile count" true
          (F.split_traced { F.tag = F.trace_tag; payload = "\x3f\xff\xff\xff" } = None);
        (* an envelope inside an envelope is rejected, not recursed *)
        let nested =
          F.encode_traced ~trace:[ ("trace", "1"); ("span", "2") ]
            { F.tag = F.trace_tag; payload = "inner-envelope" }
        in
        match F.of_string nested with
        | None -> Alcotest.fail "nested envelope did not decode"
        | Some env -> Alcotest.(check bool) "nested rejected" true (F.split_traced env = None));
    Alcotest.test_case "rpc: labels cross the socket, payload identical, one-shot" `Quick
      (fun () ->
        let seen = Atomic.make [] in
        let srv =
          Rpc.Server.create_traced ~port:0 (fun ~trace req ->
              Atomic.set seen (Atomic.get seen @ [ (trace, req.F.payload) ]);
              { F.tag = req.F.tag; payload = "ok" })
        in
        let port = Rpc.Server.port srv in
        let dom = Domain.spawn (fun () -> Rpc.Server.run srv) in
        Fun.protect
          ~finally:(fun () ->
            Rpc.Server.stop srv;
            Domain.join dom)
          (fun () ->
            match Rpc.Client.connect ~port () with
            | Error e -> Alcotest.failf "connect: %s" e
            | Ok c ->
              Fun.protect
                ~finally:(fun () -> Rpc.Client.close c)
                (fun () ->
                  let labels = [ ("trace", "42"); ("span", "7") ] in
                  let f = { F.tag = 0x2a; payload = "protocol-bytes" } in
                  Rpc.Client.set_trace c (Some labels);
                  (match Rpc.Client.call c f with
                  | Ok r -> Alcotest.(check int) "traced reply tag" 0x2a r.F.tag
                  | Error e -> Alcotest.failf "traced call: %s" e);
                  (* set_trace arms exactly one call *)
                  (match Rpc.Client.call c f with
                  | Ok _ -> ()
                  | Error e -> Alcotest.failf "untraced call: %s" e);
                  (match Atomic.get seen with
                  | [ (Some l1, p1); (None, p2) ] ->
                    Alcotest.(check bool) "labels delivered" true (l1 = labels);
                    (* the handler's payload bytes are identical with
                       tracing on and off *)
                    Alcotest.(check string) "traced payload" "protocol-bytes" p1;
                    Alcotest.(check string) "untraced payload" "protocol-bytes" p2
                  | l -> Alcotest.failf "expected 2 handler calls, saw %d" (List.length l));
                  (* satellite: per-tag rpc telemetry on the default registry *)
                  let snap = Tel.Snapshot.take Tel.default in
                  let tag_labels = [ ("tag", "0x2a") ] in
                  (match Tel.Snapshot.counter snap (Tel.metric_key "rpc.call" tag_labels) with
                  | Some n -> Alcotest.(check bool) "rpc.call{tag} counted" true (n >= 2)
                  | None -> Alcotest.fail "rpc.call{tag=0x2a} missing");
                  let hist name =
                    match Tel.Snapshot.histogram snap (Tel.metric_key name tag_labels) with
                    | Some h -> h.Tel.Histogram.count >= 2
                    | None -> false
                  in
                  Alcotest.(check bool) "rpc.request_seconds{tag}" true (hist "rpc.request_seconds");
                  Alcotest.(check bool) "rpc.payload_bytes{tag}" true (hist "rpc.payload_bytes"))));
    Alcotest.test_case "fetch error classes: refused vs accept-then-silent" `Quick (fun () ->
        (* a port nothing listens on: bind, read the port back, close *)
        let probe = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind probe (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        let dead_port =
          match Unix.getsockname probe with Unix.ADDR_INET (_, p) -> p | _ -> assert false
        in
        Unix.close probe;
        (match Listener.fetch ~timeout:2.0 ~port:dead_port "/metrics" with
        | Ok _ -> Alcotest.fail "fetch to a dead port succeeded"
        | Error e -> Alcotest.(check bool) ("refused prefix: " ^ e) true (has_prefix "refused:" e));
        (* a server that accepts (kernel backlog) and then never responds:
           the error must be classed a timeout, not a read failure *)
        let silent = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt silent Unix.SO_REUSEADDR true;
        Unix.bind silent (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen silent 4;
        let silent_port =
          match Unix.getsockname silent with Unix.ADDR_INET (_, p) -> p | _ -> assert false
        in
        Fun.protect
          ~finally:(fun () -> Unix.close silent)
          (fun () ->
            match Listener.fetch ~timeout:0.4 ~port:silent_port "/metrics" with
            | Ok _ -> Alcotest.fail "fetch to a silent server succeeded"
            | Error e ->
              Alcotest.(check bool) ("timeout prefix: " ^ e) true (has_prefix "timeout:" e)));
  ]

(* ---------- rpc over real sockets ---------- *)

let rpc_tests =
  [
    Alcotest.test_case "echo server: persistent connection, errors as frames" `Quick (fun () ->
        let srv =
          Rpc.Server.create ~port:0 (fun f ->
              if f.F.tag = 0x0f then failwith "boom"
              else { F.tag = f.F.tag; payload = "echo:" ^ f.F.payload })
        in
        let port = Rpc.Server.port srv in
        let dom = Domain.spawn (fun () -> Rpc.Server.run srv) in
        Fun.protect
          ~finally:(fun () ->
            Rpc.Server.stop srv;
            Domain.join dom)
          (fun () ->
            match Rpc.Client.connect ~port () with
            | Error e -> Alcotest.failf "connect: %s" e
            | Ok c ->
              Fun.protect
                ~finally:(fun () -> Rpc.Client.close c)
                (fun () ->
                  (* several calls over the one connection, in order *)
                  (match Rpc.Client.call c { F.tag = 1; payload = "hello" } with
                   | Ok r -> Alcotest.check frame "echo" { F.tag = 1; payload = "echo:hello" } r
                   | Error e -> Alcotest.failf "call 1: %s" e);
                  (match Rpc.Client.call c { F.tag = 2; payload = "" } with
                   | Ok r -> Alcotest.check frame "empty" { F.tag = 2; payload = "echo:" } r
                   | Error e -> Alcotest.failf "call 2: %s" e);
                  let big = String.make 100_000 'q' in
                  (match Rpc.Client.call c { F.tag = 3; payload = big } with
                   | Ok r ->
                     Alcotest.(check int) "big payload" (String.length big + 5)
                       (String.length r.F.payload)
                   | Error e -> Alcotest.failf "call 3: %s" e);
                  (* a raising handler answers with the error frame and the
                     connection survives for the next request *)
                  (match Rpc.Client.call c { F.tag = 0x0f; payload = "" } with
                   | Ok r ->
                     Alcotest.(check int) "error tag" Rpc.error_tag r.F.tag;
                     Alcotest.(check bool) "carries the exception" true
                       (let rec find i =
                          i + 4 <= String.length r.F.payload
                          && (String.sub r.F.payload i 4 = "boom" || find (i + 1))
                        in
                        find 0)
                   | Error e -> Alcotest.failf "error call: %s" e);
                  match Rpc.Client.call c { F.tag = 4; payload = "still here" } with
                  | Ok r ->
                    Alcotest.check frame "after error" { F.tag = 4; payload = "echo:still here" } r
                  | Error e -> Alcotest.failf "call after error: %s" e)));
  ]

(* ---------- listener fed one byte at a time ---------- *)

let listener_tests =
  [
    Alcotest.test_case "byte-at-a-time request still parses (head scan offset)" `Quick (fun () ->
        let l =
          Listener.create ~port:0 (fun req ->
              { Listener.status = 200; content_type = "text/plain"; body = "ok:" ^ req.Listener.path })
        in
        let port = Listener.port l in
        let dom = Domain.spawn (fun () -> Listener.run l) in
        Fun.protect
          ~finally:(fun () ->
            Listener.stop l;
            Domain.join dom)
          (fun () ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
                Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
                (* drip the request one byte per write: the header-complete
                   scan must pick up where it left off, not give up because
                   no single read contains the blank line *)
                let req = "GET /trickle HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n" in
                String.iter
                  (fun ch ->
                    let n = Unix.write fd (Bytes.make 1 ch) 0 1 in
                    Alcotest.(check int) "wrote one byte" 1 n)
                  req;
                let buf = Buffer.create 256 in
                let chunk = Bytes.create 1024 in
                let rec drain () =
                  match Unix.read fd chunk 0 1024 with
                  | 0 -> ()
                  | n ->
                    Buffer.add_subbytes buf chunk 0 n;
                    drain ()
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
                in
                drain ();
                let resp = Buffer.contents buf in
                Alcotest.(check bool) "status 200" true
                  (String.length resp >= 12 && String.sub resp 0 12 = "HTTP/1.1 200");
                let body_ok =
                  let marker = "\r\n\r\n" in
                  let rec find i =
                    if i + 4 > String.length resp then None
                    else if String.sub resp i 4 = marker then Some (i + 4)
                    else find (i + 1)
                  in
                  match find 0 with
                  | Some body_start ->
                    String.sub resp body_start (String.length resp - body_start) = "ok:/trickle"
                  | None -> false
                in
                Alcotest.(check bool) "body" true body_ok)));
  ]

(* ---------- the select loop under both protocols ---------- *)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let write_all fd s =
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let read_to_eof fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Buffer.contents buf
  in
  go ()

(* read exactly one response frame off a raw socket *)
let read_frame fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match F.decode (Buffer.contents buf) ~pos:0 with
    | F.Frame (f, _) -> f
    | F.Corrupt m -> Alcotest.failf "corrupt response: %s" m
    | F.Need_more -> (
      match Unix.read fd chunk 0 4096 with
      | 0 -> Alcotest.fail "connection closed before a whole frame"
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ())
  in
  go ()

let echo (f : F.frame) = { F.tag = f.F.tag; payload = "echo:" ^ f.F.payload }

let serving_rpc handler k =
  let srv = Rpc.Server.create ~port:0 handler in
  let dom = Domain.spawn (fun () -> Rpc.Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Rpc.Server.stop srv;
      Domain.join dom)
    (fun () -> k (Rpc.Server.port srv))

let counter name =
  Option.value ~default:0 (Tel.Snapshot.counter (Tel.Snapshot.take Tel.default) name)

let call_exn c (f : F.frame) =
  match Rpc.Client.call c f with Ok r -> r | Error e -> Alcotest.failf "call: %s" e

(* single-step a loop until a [timeout]-long poll makes no progress: every
   connection it can accept is accepted and every byte it can read is read *)
let settle poll =
  let rec go () = if poll ~timeout:0.3 > 0 then go () in
  go ()

let status_of resp = if String.length resp >= 12 then String.sub resp 9 3 else resp

let loop_tests =
  [
    Alcotest.test_case "rpc: corrupt length prefix drops only that connection" `Quick (fun () ->
        serving_rpc echo (fun port ->
            match Rpc.Client.connect ~port () with
            | Error e -> Alcotest.failf "connect: %s" e
            | Ok good ->
              Fun.protect
                ~finally:(fun () -> Rpc.Client.close good)
                (fun () ->
                  Alcotest.check frame "before" { F.tag = 1; payload = "echo:a" }
                    (call_exn good { F.tag = 1; payload = "a" });
                  let errors0 = counter "rpc.errors" in
                  let bad = raw_connect port in
                  Fun.protect
                    ~finally:(fun () -> Unix.close bad)
                    (fun () ->
                      (* a zero length prefix is not a frame *)
                      write_all bad "\000\000\000\000\001";
                      Alcotest.(check string) "corrupt connection closed, nothing sent" ""
                        (read_to_eof bad));
                  Alcotest.(check int) "rpc.errors bumped" 1 (counter "rpc.errors" - errors0);
                  Alcotest.check frame "other connection still served"
                    { F.tag = 2; payload = "echo:b" }
                    (call_exn good { F.tag = 2; payload = "b" }))));
    Alcotest.test_case "rpc: request written one byte at a time is answered" `Quick (fun () ->
        serving_rpc echo (fun port ->
            let fd = raw_connect port in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                String.iter
                  (fun ch -> write_all fd (String.make 1 ch))
                  (F.encode { F.tag = 9; payload = "drip" });
                Alcotest.check frame "answered" { F.tag = 9; payload = "echo:drip" }
                  (read_frame fd))));
    Alcotest.test_case "rpc: stop frees the port and is idempotent" `Quick (fun () ->
        let srv = Rpc.Server.create ~port:0 echo in
        let port = Rpc.Server.port srv in
        let dom = Domain.spawn (fun () -> Rpc.Server.run srv) in
        (match Rpc.Client.connect ~port () with
        | Error e -> Alcotest.failf "connect: %s" e
        | Ok c ->
          Alcotest.check frame "served" { F.tag = 3; payload = "echo:x" }
            (call_exn c { F.tag = 3; payload = "x" });
          Rpc.Client.close c);
        Rpc.Server.stop srv;
        Domain.join dom;
        (* re-binding the same port proves the descriptors were released *)
        let again = Rpc.Server.create ~port echo in
        Rpc.Server.close again;
        Rpc.Server.stop srv;
        Rpc.Server.close srv);
    Alcotest.test_case "listener: 400 on a malformed request line, 500 when the handler raises"
      `Quick (fun () ->
        let l =
          Listener.create ~port:0 (fun req ->
              if req.Listener.path = "/boom" then failwith "boom"
              else { Listener.status = 200; content_type = "text/plain"; body = "ok" })
        in
        let port = Listener.port l in
        let dom = Domain.spawn (fun () -> Listener.run l) in
        Fun.protect
          ~finally:(fun () ->
            Listener.stop l;
            Domain.join dom)
          (fun () ->
            let fd = raw_connect port in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                write_all fd "NOT A REQUEST\r\n\r\n";
                Alcotest.(check string) "400" "400" (status_of (read_to_eof fd)));
            (match Listener.fetch ~port "/boom" with
            | Ok (status, _) -> Alcotest.(check int) "500" 500 status
            | Error e -> Alcotest.failf "fetch: %s" e);
            match Listener.fetch ~port "/fine" with
            | Ok (status, body) ->
              Alcotest.(check int) "loop survived" 200 status;
              Alcotest.(check string) "body" "ok" body
            | Error e -> Alcotest.failf "fetch after 500: %s" e));
    (* [stop] then [run] in one domain: the drain alone must finish a request
       whose first half the loop read before the stop *)
    Alcotest.test_case "drain finishes partly received requests (http and rpc)" `Quick
      (fun () ->
        let l =
          Listener.create ~port:0 (fun req ->
              { Listener.status = 200; content_type = "text/plain"; body = "ok:" ^ req.Listener.path })
        in
        let fd = raw_connect (Listener.port l) in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            write_all fd "GET /late HTTP/1.1\r\n";
            settle (Listener.poll l);
            write_all fd "Host: t\r\n\r\n";
            Listener.stop l;
            Listener.run l;
            let resp = read_to_eof fd in
            Alcotest.(check string) "200" "200" (status_of resp);
            Alcotest.(check bool) "body" true
              (String.length resp > 8
              && String.sub resp (String.length resp - 8) 8 = "ok:/late"));
        let srv = Rpc.Server.create ~port:0 echo in
        let fd = raw_connect (Rpc.Server.port srv) in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let req = F.encode { F.tag = 5; payload = "half and half" } in
            write_all fd (String.sub req 0 7);
            settle (Rpc.Server.poll srv);
            write_all fd (String.sub req 7 (String.length req - 7));
            Rpc.Server.stop srv;
            Rpc.Server.run srv;
            Alcotest.check frame "answered" { F.tag = 5; payload = "echo:half and half" }
              (read_frame fd)));
    Alcotest.test_case "drain finishes unsent output (http and rpc)" `Quick (fun () ->
        (* more than loopback socket buffers take (~4 MB with Linux's
           default limits), so output is still queued at the stop *)
        let size = 5 * 1024 * 1024 in
        let big = String.make size 'z' in
        (* bytes up to EOF and how many are 'z', holding none of them *)
        let count_to_eof fd =
          let chunk = Bytes.create 65536 in
          let rec go total zs =
            match Unix.read fd chunk 0 65536 with
            | 0 -> (total, zs)
            | n ->
              let z = ref 0 in
              for i = 0 to n - 1 do
                if Bytes.get chunk i = 'z' then incr z
              done;
              go (total + n) (zs + !z)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go total zs
          in
          go 0 0
        in
        let drained ~poll ~stop ~run ~port ~request =
          let fd = raw_connect port in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              write_all fd request;
              (* accept, read and answer, writing what the socket takes *)
              settle poll;
              let reader = Domain.spawn (fun () -> count_to_eof fd) in
              stop ();
              run ();
              Domain.join reader)
        in
        let l =
          Listener.create ~port:0 (fun _ ->
              { Listener.status = 200; content_type = "text/plain"; body = big })
        in
        let total, zs =
          drained ~poll:(Listener.poll l)
            ~stop:(fun () -> Listener.stop l)
            ~run:(fun () -> Listener.run l)
            ~port:(Listener.port l) ~request:"GET / HTTP/1.1\r\n\r\n"
        in
        Alcotest.(check int) "whole http body" size zs;
        Alcotest.(check bool) "plus a head" true (total > size && total < size + 200);
        let srv = Rpc.Server.create ~port:0 (fun f -> { f with F.payload = big }) in
        let total, zs =
          drained ~poll:(Rpc.Server.poll srv)
            ~stop:(fun () -> Rpc.Server.stop srv)
            ~run:(fun () -> Rpc.Server.run srv)
            ~port:(Rpc.Server.port srv)
            ~request:(F.encode { F.tag = 6; payload = "" })
        in
        Alcotest.(check int) "whole rpc payload" size zs;
        Alcotest.(check int) "plus the frame header" (size + 5) total);
    Alcotest.test_case "drain closes idle connections at once (http and rpc)" `Quick (fun () ->
        let idle ~poll ~stop ~run ~port =
          let fd = raw_connect port in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              settle poll;
              stop ();
              let t0 = Unix.gettimeofday () in
              run ();
              let took = Unix.gettimeofday () -. t0 in
              Alcotest.(check string) "closed without a byte" "" (read_to_eof fd);
              Alcotest.(check bool) (Printf.sprintf "no drain wait (%.2f s)" took) true (took < 1.0))
        in
        let l =
          Listener.create ~port:0 (fun _ ->
              { Listener.status = 200; content_type = "text/plain"; body = "" })
        in
        idle ~poll:(Listener.poll l)
          ~stop:(fun () -> Listener.stop l)
          ~run:(fun () -> Listener.run l)
          ~port:(Listener.port l);
        let srv = Rpc.Server.create ~port:0 echo in
        idle ~poll:(Rpc.Server.poll srv)
          ~stop:(fun () -> Rpc.Server.stop srv)
          ~run:(fun () -> Rpc.Server.run srv)
          ~port:(Rpc.Server.port srv));
    (* Reassembly must be linear in the frame: decoding the buffer on every
       4 KB read used to copy O(n^2 / 4096) bytes (~275 M words for 4 MB). *)
    Alcotest.test_case "4 MB echo allocates a small multiple of the frame" `Quick (fun () ->
        (* sweep earlier tests' large garbage first: the scale suite bounds
           the process heap's high-water mark *)
        Gc.full_major ();
        let payload = String.make (4 * 1024 * 1024) 'e' in
        serving_rpc
          (fun f -> { f with F.tag = 7 })
          (fun port ->
            match Rpc.Client.connect ~timeout:30.0 ~port () with
            | Error e -> Alcotest.failf "connect: %s" e
            | Ok c ->
              Fun.protect
                ~finally:(fun () -> Rpc.Client.close c)
                (fun () ->
                  let words () =
                    let _, promoted, major = Gc.counters () in
                    Gc.minor_words () +. major -. promoted
                  in
                  let w0 = words () in
                  let r = call_exn c { F.tag = 1; payload } in
                  let used = words () -. w0 in
                  Alcotest.(check bool) "echoed" true (r.F.tag = 7 && r.F.payload = payload);
                  let frame_words = float_of_int (String.length payload / 8) in
                  Alcotest.(check bool)
                    (Printf.sprintf "%.1f M words on the calling domain <= 8 frames"
                       (used /. 1e6))
                    true
                    (used <= 8.0 *. frame_words))));
  ]

(* ---------- kill a mixer mid-round, recover, match in-process results ---- *)

(* crash mixer 1 on the first attempt of round 1 — of both phases *)
let faults seed =
  Faults.of_list ~seed [ { Faults.round = 1; kind = Server_crash { server = 1; attempts = 1 } } ]

let register d email =
  let c = Deployment.new_client d ~email ~callbacks:Client.null_callbacks in
  (match Deployment.register d c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" (Alpenhorn_pkg.Pkg.error_to_string e));
  c

(* the same two-client scenario, against either deployment *)
let scenario d =
  let alice = register d "alice@x" in
  let _bob = register d "bob@x" in
  Client.add_friend alice ~email:"bob@x" ();
  let s1 = Deployment.run_addfriend_round d () in
  let s2 = Deployment.run_addfriend_round d () in
  Client.call alice ~email:"bob@x" ~intent:1;
  (* the keywheel sync point is a couple of dial rounds ahead
     (propose_dialing_round), so run a few — the call rings when the
     wheel reaches the agreed round *)
  let dials = List.init 3 (fun _ -> Deployment.run_dialing_round d ()) in
  (s1, s2, dials)

let deltas = Alcotest.(list (pair string int))

let killed_mixer ~dial_shards () =
  let config = { Config.test with Config.n_pkgs = 1; dial_shards } in
  let seed = "net-kill" in
  (* the scenario over sockets, then in process under the same seed and
     fault schedule *)
  let ((n1, n2, ndials), net_deltas), ((i1, i2, idials), ip_deltas) =
    Fleet.domains ~faults:(faults seed) ~config ~seed (fun fleet -> Fleet.check fleet scenario)
  in
  (* the kill really aborted attempt 1 and recovery really ran *)
  Alcotest.(check int) "af round 1 recovered on attempt 2" 2 n1.Deployment.af_attempts;
  Alcotest.(check int) "af round 2 clean" 1 n2.Deployment.af_attempts;
  Alcotest.(check int) "dial round 1 recovered on attempt 2" 2
    (List.hd ndials).Deployment.dial_attempts;
  Alcotest.(check bool) "bob accepted alice" true
    (List.exists
       (function "bob@x", Client.Friend_request_accepted "alice@x" -> true | _ -> false)
       n1.Deployment.events);
  Alcotest.(check bool) "alice confirmed" true
    (List.exists
       (function "alice@x", Client.Friend_confirmed "bob@x" -> true | _ -> false)
       n2.Deployment.events);
  Alcotest.(check bool) "bob rang" true
    (List.exists
       (fun d ->
         List.exists
           (function
             | "bob@x", Client.Incoming_call { peer = "alice@x"; intent = 1; _ } -> true
             | _ -> false)
           d.Deployment.calls)
       ndials);
  (* byte-identical protocol results *)
  Alcotest.(check bool) "af round 1 events identical" true
    (n1.Deployment.events = i1.Deployment.events);
  Alcotest.(check bool) "af round 2 events identical" true
    (n2.Deployment.events = i2.Deployment.events);
  Alcotest.(check bool) "dial events identical (incl. session keys)" true
    (List.map (fun d -> d.Deployment.calls) ndials = List.map (fun d -> d.Deployment.calls) idials);
  Alcotest.(check int) "same af retries" i1.Deployment.af_attempts n1.Deployment.af_attempts;
  Alcotest.(check (list int)) "same dial retries"
    (List.map (fun d -> d.Deployment.dial_attempts) idials)
    (List.map (fun d -> d.Deployment.dial_attempts) ndials);
  (* the same mailbox geometry and downloads, whatever the shard count *)
  let geometry d =
    (d.Deployment.dial_num_mailboxes, Array.to_list d.Deployment.filter_bytes,
     d.Deployment.dial_noise_added)
  in
  Alcotest.(check (list (triple int (list int) int)))
    "dial mailboxes, filter bytes and noise identical" (List.map geometry idials)
    (List.map geometry ndials);
  (* the §10 fault telemetry rises over sockets exactly as in process:
     one abort, retry, injected crash and recovery per phase *)
  Alcotest.(check deltas) "fault telemetry identical" ip_deltas net_deltas;
  Alcotest.(check (list int)) "one of each per phase" [ 2; 2; 2; 2 ] (List.map snd net_deltas)

(* Two friends; bob sits out two dialing rounds (not a fault: he is simply
   not among the participants) while alice calls him, then catches up from
   the archive. *)
let catch_up_scenario d =
  let alice = register d "alice@x" in
  let bob = register d "bob@x" in
  Client.add_friend alice ~email:"bob@x" ();
  ignore (Deployment.run_addfriend_round d ());
  ignore (Deployment.run_addfriend_round d ());
  Client.call alice ~email:"bob@x" ~intent:3;
  let missed = List.init 2 (fun _ -> Deployment.run_dialing_round d ~participants:[ alice ] ()) in
  (missed, Deployment.catch_up_client d bob)

let catch_up_over_sockets () =
  let config = { Config.test with Config.n_pkgs = 1; dial_shards = 2 } in
  let seed = "net-catch-up" in
  let ((net_missed, net_events), _), ((ip_missed, ip_events), _) =
    Fleet.domains ~config ~seed (fun fleet -> Fleet.check fleet catch_up_scenario)
  in
  Alcotest.(check bool) "bob got nothing while away" true
    (List.for_all (fun d -> d.Deployment.calls = []) net_missed);
  (match net_events with
  | [ Client.Incoming_call { peer = "alice@x"; intent = 3; _ } ] -> ()
  | evs -> Alcotest.failf "expected alice's call on catch-up, got %d events" (List.length evs));
  Alcotest.(check bool) "catch-up events identical (incl. session keys)" true
    (net_events = ip_events);
  Alcotest.(check bool) "missed rounds identical" true
    (List.map (fun d -> d.Deployment.calls) net_missed
    = List.map (fun d -> d.Deployment.calls) ip_missed)

(* e2e-net's scripted scenario with mixer 1 killed in round 1: the
   respawned mixer reshuffles from a fresh DRBG, so bob's two requests
   reach him in another order than in process. Every round's stats and
   the fault telemetry must still match. *)
let scripted_crash ~dial_shards () =
  let config = { Config.test with Config.n_pkgs = 1; dial_shards } in
  let faults = Result.get_ok (Faults.parse "crash@1:server=1") in
  let (net, net_deltas), (ip, ip_deltas) =
    Fleet.domains ~faults ~config ~seed:"ci" (fun fleet ->
        Fleet.check fleet (Fleet.scenario ~rounds:3))
  in
  (* the printed round shows every field of its stats record *)
  Alcotest.(check (list string)) "every round identical"
    (List.map Fleet.round_to_string ip) (List.map Fleet.round_to_string net);
  Alcotest.(check deltas) "fault telemetry identical" ip_deltas net_deltas

let recovery_tests =
  [
    Alcotest.test_case "killed mixer: recover over sockets, match in-process" `Quick
      (killed_mixer ~dial_shards:0);
    Alcotest.test_case "killed mixer at 2 dial shards: recover over sockets, match in-process"
      `Quick (killed_mixer ~dial_shards:2);
    Alcotest.test_case "catch-up over sockets matches in-process" `Quick catch_up_over_sockets;
  ]

(* ---------- one mix pipeline for both transports ---------- *)

module Events = Alpenhorn_telemetry.Events

(* What the mix pipeline records in this process while [f] runs: the
   [mix.rounds] count, and the [server] label of every [mix.server_process]
   span and of every [mix.round_abort] event, in order. *)
let mix_telemetry f =
  ignore (Tel.Snapshot.take ~reset:true Tel.default);
  Events.clear Events.default;
  f ();
  let snap = Tel.Snapshot.take Tel.default in
  let server labels = List.assoc "server" labels in
  ( Option.value ~default:0 (Tel.Snapshot.counter snap "mix.rounds"),
    List.filter_map
      (fun (sp : Tel.Snapshot.span) ->
        if sp.name = "mix.server_process" then Some (server sp.labels) else None)
      snap.spans,
    List.filter_map
      (fun (e : Events.event) ->
        if e.name = "mix.round_abort" then Some (server e.labels) else None)
      (Events.to_list Events.default) )

(* One add-friend and one dialing round over a fleet on domains, then the
   same pair in process under the same seed and faults. The mixer servers
   share this process's registry but run no chain: every span and event
   counted here is the orchestrator's. *)
let pipeline_pair ?(faults = Faults.empty) ~seed () =
  let config = { Config.test with Config.n_pkgs = 1 } in
  let pair d =
    let alice = register d "alice@x" in
    ignore (register d "bob@x");
    Client.add_friend alice ~email:"bob@x" ();
    ignore (Deployment.run_addfriend_round d ());
    ignore (Deployment.run_dialing_round d ())
  in
  Fleet.domains ~faults ~config ~seed (fun fleet ->
      let wire = mix_telemetry (fun () -> pair (Fleet.deployment fleet)) in
      let local = Deployment.create ~config ~seed in
      Deployment.set_faults local faults;
      (wire, mix_telemetry (fun () -> pair local)))

let pipeline_tests =
  let telemetry = Alcotest.(triple int (list string) (list string)) in
  [
    Alcotest.test_case "round pair: the wire records the in-process mix telemetry" `Quick
      (fun () ->
        let wire, local = pipeline_pair ~seed:"net-pipeline" () in
        Alcotest.(check telemetry) "two mixes, one span per hop, no abort"
          (2, [ "0"; "1"; "2"; "0"; "1"; "2" ], []) wire;
        Alcotest.(check telemetry) "wire = in process" local wire);
    Alcotest.test_case "crash@1:server=1: the wire logs the in-process abort" `Quick (fun () ->
        let faults = Result.get_ok (Faults.parse "crash@1:server=1") in
        let ((_, _, aborts) as wire), local = pipeline_pair ~faults ~seed:"net-pipeline" () in
        Alcotest.(check (list string)) "one abort at server 1 per phase" [ "1"; "1" ] aborts;
        Alcotest.(check telemetry) "wire = in process" local wire);
  ]

(* ---------- one failure path for PKGs and mixers ---------- *)

(* alice befriends bob and calls him, with a never-registered client among
   the participants of every round *)
let unregistered_scenario d =
  let alice = register d "alice@x" in
  let bob = register d "bob@x" in
  let participants =
    [ alice; bob; Deployment.new_client d ~email:"mallory@x" ~callbacks:Client.null_callbacks ]
  in
  Client.add_friend alice ~email:"bob@x" ();
  let af = List.init 2 (fun _ -> Fleet.Af (Deployment.run_addfriend_round d ~participants ())) in
  Client.call alice ~email:"bob@x" ~intent:1;
  af @ List.init 3 (fun _ -> Fleet.Dial (Deployment.run_dialing_round d ~participants ()))

let pkg_failure_tests =
  [
    Alcotest.test_case "unregistered participant: it sits out, wire = in process" `Quick
      (fun () ->
        let config = { Config.test with Config.n_pkgs = 1 } in
        let (net, net_deltas), (ip, ip_deltas) =
          Fleet.domains ~config ~seed:"net-unregistered" (fun fleet ->
              Fleet.check fleet unregistered_scenario)
        in
        Alcotest.(check (list string)) "every round identical"
          (List.map Fleet.round_to_string ip) (List.map Fleet.round_to_string net);
        Alcotest.(check deltas) "fault telemetry identical" ip_deltas net_deltas;
        Alcotest.(check bool) "bob rang" true
          (List.exists
             (function
               | Fleet.Dial d ->
                 List.exists
                   (function
                     | "bob@x", Client.Incoming_call { peer = "alice@x"; _ } -> true
                     | _ -> false)
                   d.Deployment.calls
               | Fleet.Af _ -> false)
             net));
    Alcotest.test_case "stopped PKG server: the next round fails cleanly" `Quick (fun () ->
        let config = { Config.test with Config.n_pkgs = 1 } in
        Fleet.domains ~config ~seed:"net-pkg-stop" (fun fleet ->
            let d = Fleet.deployment fleet in
            let alice = register d "alice@x" in
            ignore (register d "bob@x");
            Client.add_friend alice ~email:"bob@x" ();
            ignore (Deployment.run_addfriend_round d ());
            Fleet.kill_pkg fleet 0;
            match Deployment.run_addfriend_round d () with
            | _ -> Alcotest.fail "a round completed without its PKG"
            | exception Deployment.Round_failed { round; attempts; _ } ->
              Alcotest.(check (pair int int)) "round 2, every attempt" (2, 4) (round, attempts)));
  ]

(* Dialing noise at 64 per mailbox and server: the mixers wrap it on
   combs and unwrap it in more than one curve batch, over the wire and in
   process alike. *)
let comb_noise_over_sockets () =
  let config = { Config.test with Config.n_pkgs = 1; dialing_noise_mu = 64.0 } in
  let (net, net_deltas), (ip, ip_deltas) =
    Fleet.domains ~config ~seed:"net-noise-64" (fun fleet ->
        Fleet.check fleet (Fleet.scenario ~rounds:2))
  in
  Alcotest.(check (list string)) "every round identical"
    (List.map Fleet.round_to_string ip) (List.map Fleet.round_to_string net);
  Alcotest.(check deltas) "fault telemetry identical" ip_deltas net_deltas

let suite =
  framing_tests @ rpc_tests @ listener_tests @ recovery_tests @ loop_tests @ trace_envelope_tests
  @ List.map
      (fun dial_shards ->
        Alcotest.test_case
          (Printf.sprintf "scripted crash@1, %d dial shards: wire = in process" dial_shards)
          `Quick (scripted_crash ~dial_shards))
      [ 0; 2 ]
  @ pipeline_tests @ pkg_failure_tests
  @ [ Alcotest.test_case "dialing noise 64: wire = in process" `Quick comb_noise_over_sockets ]
