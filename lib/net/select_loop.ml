(* From-scratch select loop shared by the HTTP listener and the RPC server.
   Single-domain loop, non-blocking sockets, per-connection buffers,
   self-pipe wakeup for cross-domain stop. No opam dependencies: Unix +
   the in-tree telemetry registry. *)

module Tel = Alpenhorn_telemetry.Telemetry

type verdict = Keep | Close

type 's conn = {
  fd : Unix.file_descr;
  state : 's;
  input : Buffer.t;
  mutable out : string;
  mutable out_off : int;
}

type 's t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  init : unit -> 's;
  on_input : 's conn -> verdict;
  on_sent : 's conn -> verdict;
  open_connections : Tel.Gauge.t;
  conns : (Unix.file_descr, 's conn) Hashtbl.t; (* loop-domain only *)
  chunk : Bytes.t; (* loop-domain only *)
  stop_flag : bool Atomic.t;
  pipe_rd : Unix.file_descr;
  pipe_wr : Unix.file_descr;
  mutable accepting : bool;
  mutable closed : bool;
}

let drain_seconds = 2.0

let state c = c.state
let input c = c.input
let pending c = c.out_off < String.length c.out

let send c s =
  if pending c then c.out <- c.out ^ s
  else begin
    c.out <- s;
    c.out_off <- 0
  end

let create ?(host = "127.0.0.1") ?(backlog = 16) ~port ~open_connections ~init ~on_input
    ~on_sent () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.listen fd backlog;
  Unix.set_nonblock fd;
  let bound_port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> port
  in
  let pipe_rd, pipe_wr = Unix.pipe () in
  Unix.set_nonblock pipe_rd;
  Unix.set_nonblock pipe_wr;
  {
    listen_fd = fd;
    bound_port;
    init;
    on_input;
    on_sent;
    open_connections;
    conns = Hashtbl.create 16;
    chunk = Bytes.create 4096;
    stop_flag = Atomic.make false;
    pipe_rd;
    pipe_wr;
    accepting = true;
    closed = false;
  }

let port t = t.bound_port

let count_open t = Tel.Gauge.set t.open_connections (float_of_int (Hashtbl.length t.conns))

let close_conn t c =
  Hashtbl.remove t.conns c.fd;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  count_open t

let apply t c = function Keep -> () | Close -> close_conn t c

let handle_readable t c =
  match Unix.read c.fd t.chunk 0 (Bytes.length t.chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t c
  | 0 -> close_conn t c (* peer closed *)
  | n ->
    Buffer.add_subbytes c.input t.chunk 0 n;
    apply t c (t.on_input c)

let handle_writable t c =
  match Unix.write_substring c.fd c.out c.out_off (String.length c.out - c.out_off) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t c
  | n ->
    c.out_off <- c.out_off + n;
    if not (pending c) then begin
      c.out <- "";
      c.out_off <- 0;
      apply t c (t.on_sent c)
    end

let accept_ready t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error (_, _, _) -> () (* EAGAIN: backlog empty *)
    | fd, _ ->
      Unix.set_nonblock fd;
      Hashtbl.replace t.conns fd
        { fd; state = t.init (); input = Buffer.create 256; out = ""; out_off = 0 };
      count_open t;
      go ()
  in
  go ()

let drain_pipe t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.pipe_rd buf 0 64 with
    | exception Unix.Unix_error _ -> ()
    | 0 -> ()
    | _ -> go ()
  in
  go ()

let poll t ~timeout =
  if t.closed then 0
  else begin
    if Atomic.get t.stop_flag then t.accepting <- false;
    let readers = ref [ t.pipe_rd ] and writers = ref [] in
    if t.accepting then readers := t.listen_fd :: !readers;
    Hashtbl.iter
      (fun fd c -> if pending c then writers := fd :: !writers else readers := fd :: !readers)
      t.conns;
    match Unix.select !readers !writers [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
    | rs, ws, _ ->
      List.iter
        (fun fd ->
          if fd = t.pipe_rd then drain_pipe t
          else if fd = t.listen_fd then accept_ready t
          else match Hashtbl.find_opt t.conns fd with Some c -> handle_readable t c | None -> ())
        rs;
      List.iter
        (fun fd ->
          match Hashtbl.find_opt t.conns fd with Some c -> handle_writable t c | None -> ())
        ws;
      List.length rs + List.length ws
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.close t.pipe_rd with Unix.Unix_error _ -> ());
    (try Unix.close t.pipe_wr with Unix.Unix_error _ -> ());
    Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
    Hashtbl.reset t.conns;
    Tel.Gauge.set t.open_connections 0.0
  end

let stop t =
  Atomic.set t.stop_flag true;
  (* wake a parked select; harmless if nobody is parked *)
  try ignore (Unix.write_substring t.pipe_wr "x" 0 1) with Unix.Unix_error _ -> ()

(* Close the idle connections; true while any other remains. *)
let busy t =
  let idle c = (not (pending c)) && Buffer.length c.input = 0 in
  List.iter (close_conn t)
    (Hashtbl.fold (fun _ c acc -> if idle c then c :: acc else acc) t.conns []);
  Hashtbl.length t.conns > 0

let run t =
  while not (Atomic.get t.stop_flag) do
    ignore (poll t ~timeout:0.25)
  done;
  (* graceful drain: no new accepts (poll clears [accepting]); idle
     connections close at once — a persistent peer sees EOF on its next
     call — while unsent output and partly received requests get a
     bounded time to finish *)
  let deadline = Unix.gettimeofday () +. drain_seconds in
  while busy t && Unix.gettimeofday () < deadline do
    ignore (poll t ~timeout:0.05)
  done;
  close t
