(* From-scratch HTTP/1.1 listener: request parsing and response rendering
   on the shared {!Select_loop}, plus a minimal blocking client. No opam
   dependencies: Unix + the in-tree telemetry registry. *)

module Tel = Alpenhorn_telemetry.Telemetry

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
}

type response = { status : int; content_type : string; body : string }
type handler = request -> response

(* per-connection protocol state; the loop holds the bytes *)
type conn = {
  opened_at : float;
  mutable scanned : int; (* head-terminator search resumes here, not at 0 *)
}

type t = conn Select_loop.t

(* ---- request parsing ---- *)

let url_decode s =
  let n = String.length s in
  let b = Buffer.create n in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' -> Buffer.add_char b ' '
    | '%' when !i + 2 < n -> (
      match (hex s.[!i + 1], hex s.[!i + 2]) with
      | Some h, Some l ->
        Buffer.add_char b (Char.chr ((h * 16) + l));
        i := !i + 2
      | _ -> Buffer.add_char b '%')
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let parse_query qs =
  String.split_on_char '&' qs
  |> List.filter_map (fun kv ->
         if kv = "" then None
         else
           match String.index_opt kv '=' with
           | None -> Some (url_decode kv, "")
           | Some i ->
             Some
               ( url_decode (String.sub kv 0 i),
                 url_decode (String.sub kv (i + 1) (String.length kv - i - 1)) ))

let parse_request head =
  let lines = String.split_on_char '\n' head |> List.map (fun l -> String.trim l) in
  match lines with
  | [] -> None
  | reqline :: rest -> (
    match String.split_on_char ' ' reqline |> List.filter (fun s -> s <> "") with
    | [ meth; target; version ]
      when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
      let path_raw, query =
        match String.index_opt target '?' with
        | None -> (target, [])
        | Some i ->
          ( String.sub target 0 i,
            parse_query (String.sub target (i + 1) (String.length target - i - 1)) )
      in
      let headers =
        List.filter_map
          (fun l ->
            match String.index_opt l ':' with
            | None -> None
            | Some i ->
              Some
                ( String.lowercase_ascii (String.trim (String.sub l 0 i)),
                  String.trim (String.sub l (i + 1) (String.length l - i - 1)) ))
          rest
      in
      Some { meth = String.uppercase_ascii meth; path = url_decode path_raw; query; headers }
    | _ -> None)

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let render_response (r : response) =
  Printf.sprintf "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    r.status (status_text r.status) r.content_type (String.length r.body) r.body

(* ---- HTTP on the select loop ---- *)

(* The header terminator; tolerate bare-LF clients. The scan resumes at
   [c.scanned] (rewound 3 bytes so a terminator split across chunks is
   still seen) instead of offset 0 — a slow-trickle client used to cost a
   full rescan of the buffer per received chunk. [Buffer.nth] is O(1), so
   nothing is materialized until a terminator is actually found. *)
let head_complete (c : conn) b =
  let n = Buffer.length b in
  let ch i = Buffer.nth b i in
  let rec find i =
    if i + 1 >= n then begin
      c.scanned <- Stdlib.max 0 (n - 3);
      None
    end
    else if i + 3 < n && ch i = '\r' && ch (i + 1) = '\n' && ch (i + 2) = '\r' && ch (i + 3) = '\n'
    then Some (Buffer.sub b 0 i)
    else if ch i = '\n' && ch (i + 1) = '\n' then Some (Buffer.sub b 0 i)
    else find (i + 1)
  in
  find c.scanned

let plain status body = { status; content_type = "text/plain; charset=utf-8"; body }

let create ?host ?backlog ?(max_request_bytes = 8192) ~port handler =
  let reg = Tel.default in
  let h_request = Tel.Histogram.v reg "net.request_seconds" in
  (* one response per connection, then [Connection: close] *)
  let respond c (resp : response) =
    Tel.Counter.inc
      (Tel.Counter.v reg ~labels:[ ("status", string_of_int resp.status) ] "net.requests");
    Select_loop.send c (render_response resp);
    Select_loop.Keep
  in
  let on_input c =
    let b = Select_loop.input c in
    if Buffer.length b > max_request_bytes then respond c (plain 431 "request head too large\n")
    else
      match head_complete (Select_loop.state c) b with
      | None -> Select_loop.Keep
      | Some head -> (
        match parse_request head with
        | None -> respond c (plain 400 "bad request\n")
        | Some req -> respond c (try handler req with _ -> plain 500 "internal error\n"))
  in
  let on_sent c =
    Tel.Histogram.observe h_request (Unix.gettimeofday () -. (Select_loop.state c).opened_at);
    Select_loop.Close
  in
  Select_loop.create ?host ?backlog ~port
    ~open_connections:(Tel.Gauge.v reg "net.open_connections")
    ~init:(fun () -> { opened_at = Unix.gettimeofday (); scanned = 0 })
    ~on_input ~on_sent ()

let port = Select_loop.port
let poll = Select_loop.poll
let run = Select_loop.run
let stop = Select_loop.stop
let close = Select_loop.close

(* ---- minimal blocking HTTP client ---- *)

let fetch ?(timeout = 5.0) ?(host = "127.0.0.1") ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally @@ fun () ->
  match
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  with
  | exception Unix.Unix_error (e, _, _) ->
    (* The scraper's staleness logic keys on the failure class, so name
       it: "refused" = nothing listening (process dead), "timeout" = a
       peer that exists but does not answer (hung, or still booting). *)
    let klass =
      match e with
      | Unix.ECONNREFUSED -> "refused"
      | Unix.ETIMEDOUT | Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK -> "timeout"
      | _ -> "error"
    in
    Error (Printf.sprintf "%s: connect %s:%d: %s" klass host port (Unix.error_message e))
  | () -> (
    let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n" path host in
    (* [Unix.write_substring] may send fewer bytes than asked (signal, small
       socket buffer): loop until the whole request is out. *)
    let rec write_all off =
      if off >= String.length req then Ok ()
      else
        match Unix.write_substring fd req off (String.length req - off) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all off
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Error (Printf.sprintf "timeout: write stalled for %gs" timeout)
        | exception Unix.Unix_error (e, _, _) -> Error ("write: " ^ Unix.error_message e)
        | n -> write_all (off + n)
    in
    match write_all 0 with
    | Error _ as e -> e
    | Ok () -> (
      let buf = Bytes.create 65536 in
      let b = Buffer.create 4096 in
      let rec read_all () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* connected but silent: the accepted-then-hung case, distinct
             from "refused" above *)
          Error (Printf.sprintf "timeout: no response within %gs" timeout)
        | exception Unix.Unix_error (e, _, _) -> Error ("read: " ^ Unix.error_message e)
        | 0 -> Ok ()
        | n ->
          Buffer.add_subbytes b buf 0 n;
          read_all ()
      in
      match read_all () with
      | Error _ as e -> e
      | Ok () -> (
        let s = Buffer.contents b in
        (* split head/body on the first blank line *)
        let split =
          let rec find i =
            if i + 3 < String.length s && String.sub s i 4 = "\r\n\r\n" then Some (i, 4)
            else if i + 1 < String.length s && String.sub s i 2 = "\n\n" then Some (i, 2)
            else if i + 1 >= String.length s then None
            else find (i + 1)
          in
          find 0
        in
        match split with
        | None -> Error "malformed response: no header terminator"
        | Some (i, sep) -> (
          let head = String.sub s 0 i in
          let body = String.sub s (i + sep) (String.length s - i - sep) in
          match String.split_on_char ' ' (List.hd (String.split_on_char '\n' head)) with
          | _http :: code :: _ -> (
            match int_of_string_opt (String.trim code) with
            | Some status -> Ok (status, body)
            | None -> Error "malformed response: bad status code")
          | _ -> Error "malformed response: bad status line"))))
