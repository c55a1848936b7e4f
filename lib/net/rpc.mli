(** Framed request/response RPC over TCP (DESIGN.md §13).

    The {!Server} runs {!Framing} streams on the shared {!Select_loop},
    the loop under the HTTP {!Listener} too: connections are persistent,
    each request frame yields exactly one response frame (in order), and
    every connection carries its own partial-read and partial-write
    state so slow or bursty peers never block the loop. A frame is
    decoded only once its bytes have all arrived, so reassembly is
    linear in the frame size. A [Corrupt] framing verdict drops the
    connection — stream framing errors are not recoverable.

    The {!Client} is deliberately blocking (socket timeouts bound every
    syscall): RPC callers in this tree are orchestrators issuing one call
    at a time per connection.

    Handler exceptions are caught and returned to the peer as an
    {!error_tag} frame carrying the exception text. *)

type handler = Framing.frame -> Framing.frame

type traced_handler = trace:(string * string) list option -> Framing.frame -> Framing.frame
(** A handler that also receives the trace labels carried by a
    {!Framing.trace_tag} envelope, when the request arrived in one. The
    frame it sees is always the inner protocol frame — byte-identical
    whether or not an envelope was present. *)

val error_tag : int
(** 0xff — response tag for handler failures; the payload is the error
    message. *)

val error_frame : string -> Framing.frame

module Server : sig
  type t

  val create :
    ?host:string -> ?backlog:int -> ?max_payload:int -> port:int -> handler -> t
  (** Bind and listen (non-blocking). [~port:0] picks an ephemeral port;
      read it back with {!port}. [host] defaults to localhost.
      @raise Unix.Unix_error when the bind fails. *)

  val create_traced :
    ?host:string -> ?backlog:int -> ?max_payload:int -> port:int -> traced_handler -> t
  (** Like {!create}, but the handler sees the trace labels of
      enveloped requests ([trace = None] for plain ones). {!create} is
      [create_traced] ignoring the labels. *)

  val port : t -> int

  val run : t -> unit
  (** Serve until {!stop}, then drain and close every descriptor: idle
      connections close at once, while in-flight responses and partly
      received requests get a 2-second deadline. Run this in its own
      domain or process. *)

  val poll : t -> timeout:float -> int
  (** One select iteration — accept, read, dispatch, write — returning
      the number of descriptors that made progress. {!run} is a loop over
      this; tests can single-step it instead. *)

  val stop : t -> unit
  (** Signal {!run} to finish. Safe from any domain or signal handler:
      sets an atomic flag and pokes the loop's wakeup pipe. *)

  val close : t -> unit
  (** Close all descriptors now. Idempotent; {!run} calls it on exit. *)
end

module Client : sig
  type t

  val connect :
    ?timeout:float -> ?max_payload:int -> ?host:string -> port:int -> unit ->
    (t, string) result
  (** TCP connect with [timeout] (default 5s) applied to every subsequent
      read and write on the connection. *)

  val set_trace : t -> (string * string) list option -> unit
  (** Arm (or disarm) the trace labels for the {e next} {!call} only: the
      call wraps its request in a {!Framing.trace_tag} envelope and
      clears the armament, so an untraced caller path never pays for
      tracing and protocol payload bytes are never touched. *)

  val call : t -> Framing.frame -> (Framing.frame, string) result
  (** Send one request frame, block for the one response frame. Partial
      writes and reads are looped; [EINTR] is retried; a timeout,
      connection loss, or corrupt response surfaces as [Error]. *)

  val close : t -> unit
end
