(** Zero-dependency HTTP/1.1 listener: length-bounded request parsing and
    response rendering on the shared {!Select_loop} (DESIGN.md §12).

    It lives in [lib/net] rather than inside the telemetry library
    because the PKG and mixer server binaries serve their metrics planes
    with it, next to their {!Rpc.Server} on the same loop code. It
    serves the live telemetry endpoints ({!Alpenhorn_telemetry.Expose}
    supplies the handler).

    Shape: {!create} binds and listens (port [0] picks an ephemeral port
    — read it back with {!port}); {!run} drives the select loop until
    {!stop}; {!poll} runs a single bounded iteration for callers that own
    their own loop (tests, a simulator pumping between rounds). One
    domain runs the loop; {!stop} is safe from any other domain (it wakes
    the loop through a self-pipe). Connections are handled to completion:
    read until the header terminator (bounded by [max_request_bytes] —
    oversized requests get HTTP 431 and the connection is closed), parse
    the request line and headers (a malformed request line gets 400),
    percent-decode the query, call the handler, write the response with
    [Connection: close]. A graceful {!stop} first stops accepting, closes
    idle connections, then finishes partly received requests and
    in-flight responses (bounded by a 2-second drain deadline) before
    closing.

    Telemetry: [net.requests{status}] counters, a [net.request_seconds]
    histogram (accept-to-last-byte, registry clock) and the
    [net.open_connections] gauge — the listener observes itself through
    the same registry it usually serves.

    {!fetch} is the matching minimal HTTP/1.1 client (used by the [top]
    dashboard, the CI endpoint smoke test and the [--probe] self-check —
    no curl anywhere). *)

type request = {
  meth : string;  (** uppercased, e.g. ["GET"] *)
  path : string;  (** percent-decoded, query stripped, e.g. ["/metrics"] *)
  query : (string * string) list;  (** percent-decoded key/value pairs *)
  headers : (string * string) list;  (** names lowercased *)
}

type response = { status : int; content_type : string; body : string }

type handler = request -> response
(** Must not raise; a raising handler is answered with a plain 500 and
    the exception is swallowed (the loop must survive any request). *)

type t

val create :
  ?host:string -> ?backlog:int -> ?max_request_bytes:int -> port:int -> handler -> t
(** Bind [host] (default ["127.0.0.1"]) on [port] ([0] = ephemeral) and
    listen ([backlog] default 16). [max_request_bytes] (default 8192)
    bounds the buffered request head; longer requests are rejected with
    431 before parsing.
    @raise Unix.Unix_error when binding fails (port in use, permission). *)

val port : t -> int
(** The actually bound port — the ephemeral port when created with
    [port:0]. *)

val poll : t -> timeout:float -> int
(** One select iteration waiting at most [timeout] seconds; accepts,
    reads, dispatches and writes whatever is ready. Returns the number
    of descriptors progressed (0 on pure timeout). *)

val run : t -> unit
(** Loop {!poll} until {!stop}, then drain in-flight responses and close
    every descriptor. Blocks; typically [Domain.spawn (fun () -> run t)]. *)

val stop : t -> unit
(** Request graceful shutdown from any domain; idempotent. {!run}
    returns once drained. If no [run] is active, the next {!poll} stops
    accepting and a final {!close} reclaims descriptors. *)

val close : t -> unit
(** Force-close every descriptor now. {!run} calls it on exit; needed
    only by {!poll}-style callers. Idempotent. *)

val fetch :
  ?timeout:float -> ?host:string -> port:int -> string -> (int * string, string) result
(** [fetch ~port path]: one blocking HTTP/1.1 GET against
    [host] (default ["127.0.0.1"]), returning [(status, body)].
    [timeout] (default 5 s) bounds connect, write and read. The [Error]
    string is prefixed with its failure class so callers (the fleet
    scraper's staleness logic) can distinguish a dead process from a
    hung one: ["refused: ..."] when nothing is listening,
    ["timeout: ..."] when a peer exists but never answers (including a
    server that accepts the connection and then goes silent), and
    ["read: ..."] / ["write: ..."] / ["error: ..."] /
    ["malformed response: ..."] otherwise. *)

val url_decode : string -> string
(** Percent-decoding with [+] as space; invalid escapes pass through
    verbatim. Exposed for tests. *)
