(** The one non-blocking [Unix.select] server loop under both wire
    protocols (DESIGN.md §12–13): the HTTP {!Listener} and the framed
    {!Rpc.Server} are each this loop plus a protocol.

    The loop owns the sockets: bind and listen, accept, non-blocking
    reads into a per-connection input buffer, partial writes from a
    per-connection output, a self-pipe through which {!stop} wakes a
    parked [select] from any domain, and the bounded drain after it. The
    protocol owns the bytes: [on_input] runs after every read with the
    connection's unconsumed input, and [on_sent] once everything {!send}
    queued is written. A connection with output pending is not read until
    that output is out, so requests on one connection are answered in
    order.

    All state lives in the {!t}: two loops can run on two domains of one
    process, as the server binaries' RPC and metrics planes do. *)

type verdict =
  | Keep
  | Close  (** close the connection now, dropping anything still queued *)

type 's conn
(** An accepted connection carrying the protocol's per-connection state
    ['s]. *)

val state : 's conn -> 's

val input : _ conn -> Buffer.t
(** Bytes received and not yet consumed. The protocol removes what it
    consumes; a connection with empty input and no pending output is
    idle. *)

val send : _ conn -> string -> unit
(** Queue bytes after any already queued. Queuing [""] does nothing. *)

type 's t

val create :
  ?host:string ->
  ?backlog:int ->
  port:int ->
  open_connections:Alpenhorn_telemetry.Telemetry.Gauge.t ->
  init:(unit -> 's) ->
  on_input:('s conn -> verdict) ->
  on_sent:('s conn -> verdict) ->
  unit ->
  's t
(** Bind [host] (default ["127.0.0.1"]) on [port] ([0] = ephemeral) and
    listen ([backlog] default 16), non-blocking. [init] makes the state
    of each accepted connection; [open_connections] tracks how many are
    open.
    @raise Unix.Unix_error when binding fails. *)

val port : _ t -> int
(** The bound port — the ephemeral one when created with [port:0]. *)

val poll : _ t -> timeout:float -> int
(** One select iteration waiting at most [timeout] seconds: accept, read,
    dispatch and write whatever is ready. Returns the number of
    descriptors that made progress (0 on a pure timeout). *)

val run : _ t -> unit
(** Loop {!poll} until {!stop}, then drain and close every descriptor.
    The drain accepts nothing new, closes idle connections at once, and
    for at most 2 seconds finishes unsent output and partly received
    requests. *)

val stop : _ t -> unit
(** Ask {!run} to finish; safe from any domain and idempotent. It sets
    an atomic flag and pokes the wakeup pipe. Without a running {!run},
    the next {!poll} stops accepting. *)

val close : _ t -> unit
(** Close every descriptor now. Idempotent; {!run} calls it on exit. *)
