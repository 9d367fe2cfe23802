(** Framed-JSON transport: one protocol over one kind of connection.

    The pool's wire format is a length-prefixed {!Obs.Json} frame:
    the payload byte length in ASCII decimal, a ['\n'], then exactly
    that many bytes of JSON.  This module owns the framing and the
    connection that carries it: a stream socket, either one end of a
    [Unix.socketpair] (a forked local worker) or a TCP connection (a
    remote one), so the dispatch loop in {!Pool} never branches on
    where a peer runs.

    Every "peer went away" failure shape (EOF, [EPIPE], [ECONNRESET],
    …) is normalized to the single {!Disconnected} exception, which the
    pool maps onto its lost-link/requeue path.  Call {!init} (or have
    the pool do it) so a dead peer raises instead of delivering a fatal
    SIGPIPE. *)

(** Raised by reads and writes when the peer is gone: end-of-file, a
    closed socket, or a reset/aborted connection.  The payload says
    which operation observed it (e.g. ["write: Broken pipe"]). *)
exception Disconnected of string

val init : unit -> unit
(** Ignore SIGPIPE process-wide so writes to a dead peer raise
    {!Disconnected} (via [EPIPE]) instead of killing the process.
    Idempotent. *)

(** {1 Connections} *)

type conn = {
  c_fd : Unix.file_descr;   (** one stream socket, read and written *)
  c_addr : string;          (** peer address, e.g. ["127.0.0.1:49152"]
                                or ["w0"] for a forked local worker *)
}

val close : conn -> unit
(** Close the socket.  Never raises. *)

(** {1 Framing}

    The [_fd] variants work on raw descriptors for call sites that hold
    no {!conn}, such as {!Pool.fork_map}'s result pipes. *)

val frame_string : Obs.Json.t -> string
(** The exact bytes a frame puts on the wire. *)

val write_frame : conn -> Obs.Json.t -> unit
val read_frame : conn -> Obs.Json.t

val write_frame_fd : Unix.file_descr -> Obs.Json.t -> unit
val read_frame_fd : Unix.file_descr -> Obs.Json.t
(** Blocking; [EINTR]-retrying.  Raise {!Disconnected} when the peer is
    gone and [Failure] on a malformed header or payload (a framing bug
    or corruption, not a liveness event).  A header is malformed once it
    runs past the 10 digits of the largest allowed length, [1 lsl 30],
    so a peer cannot make the reader consume an unbounded header.  On a
    socket with [SO_RCVTIMEO] set, a wait longer than the timeout
    raises [Unix.Unix_error] ([EAGAIN]), so a peer that stops halfway
    through a frame cannot block the reader. *)

val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** [write_all fd buf off len]: loop until all [len] bytes are written.
    Exposed for chaos injection sites that shear a frame mid-write. *)

(** {1 TCP} *)

type listener

val listen : ?backlog:int -> host:string -> port:int -> unit -> listener
(** Bind and listen on [host:port].  [port = 0] asks the kernel for an
    ephemeral port; the bound port is visible via {!listener_addr}, so
    tests and benches can listen first and tell workers where to dial. *)

val listener_addr : listener -> string * int
(** [(host, bound_port)]. *)

val listener_fd : listener -> Unix.file_descr
(** For [select] alongside worker descriptors.  Forked children must
    close this inherited descriptor. *)

val accept : listener -> conn
val close_listener : listener -> unit

val connect : host:string -> port:int -> conn
(** Single dial attempt; raises {!Disconnected} if refused or
    unreachable.  Retry cadence is the caller's job — see
    {!backoff_delay}. *)

(** {1 Reconnect backoff} *)

val backoff_delay : seed:int -> attempt:int -> float
(** Seconds to wait before reconnect [attempt] (1-based).  A pure
    function of [(seed, attempt)]: exponential from 50 ms doubling per
    attempt, capped at 5 s, with full splitmix64 jitter drawn over
    (0, cap] so distinct seeds desynchronize.  Deterministic — the
    whole schedule can be tabulated in tests. *)

val backoff_cap_s : float
(** Upper bound on any {!backoff_delay} result (5 s). *)
