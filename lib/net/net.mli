(** The network front end: a Unix-socket / TCP listener serving the
    {!Wire} protocol over {!Dc_server.Server} sessions, plus the client
    used by tests, bench, and [dbpl connect].

    One accept thread per listener and one thread per connection; the
    writer thread never touches a socket, so a hostile or stalled peer
    can only ever cost its own connection: incoming frame lengths are
    validated against [max_frame] before the body is read, every
    in-flight read/write runs under [io_timeout], and any protocol
    violation earns an [Err Protocol] response and a closed connection.

    Both ends move a frame with one [read] and one [write]: each
    connection reads through a fixed buffer of {!read_buffer_size}
    bytes that takes whatever has arrived (pipelined frames included),
    and timeouts are the kernel's socket timeouts ([SO_RCVTIMEO],
    [SO_SNDTIMEO]), so no [select] runs per frame. *)

open Dc_relation

exception Timeout
(** An in-flight frame read/write exceeded its timeout. *)

val read_buffer_size : int
(** Bytes of a connection's read buffer.  A frame up to this size is cut
    out of it; a larger payload is read straight into its own bytes. *)

type addr = Unix_sock of string | Tcp of string * int

val pp_addr : addr Fmt.t

val addr_of_string : string -> addr option
(** Parse ["unix:/path"], ["/path"], ["tcp:host:port"], ["host:port"],
    [":port"], or ["port"] (bare ports bind 127.0.0.1). *)

(** {1 Listener} *)

type listener

val listen :
  ?max_frame:int ->
  ?io_timeout:float ->
  ?idle_timeout:float ->
  Dc_server.Server.t ->
  addr ->
  listener
(** Bind [addr] and serve connections over [srv]'s sessions (one session
    per connection, opened after the handshake).  [max_frame] (default
    {!Wire.default_max_frame}) bounds incoming frame payloads;
    [io_timeout] (default 30s) bounds each read and write of an
    in-flight frame (a peer that stalls mid-frame is disconnected), and
    the client's preamble; [idle_timeout] (default negative = forever)
    bounds the wait for the first byte of a new request, the gap
    between statements, which [io_timeout] does not cover.  A negative
    timeout waits forever; a timeout of [0.] is raised to a
    millisecond.  TCP port [0] binds an ephemeral port — recover it
    with {!bound_port}. *)

val stop : listener -> unit
(** Close the listening socket, disconnect every live connection, and
    join all threads.  Idempotent.  Unix socket files are unlinked. *)

val bound_addr : listener -> Unix.sockaddr
val bound_port : listener -> int
(** The actual TCP port (after ephemeral binding).
    @raise Invalid_argument on a unix-socket listener. *)

val classify_exn : exn -> Wire.error_code * string
(** The error taxonomy: the code and message an [Err] frame carries for
    an exception a request raised (lexer and parser errors are [Parse],
    typing errors [Type], evaluation and catalog errors [Semantic], a
    tripped guard [Limit]; anything unforeseen is [Internal]). *)

(** {1 Client} *)

module Client : sig
  exception Remote of Wire.error_code * string
  (** The server answered with an [Err] frame (or broke protocol). *)

  type t

  val connect : ?max_frame:int -> ?timeout:float -> addr -> t
  (** Connect and handshake.  [timeout] (default 30s, negative =
      forever) bounds each read and write of the handshake and of every
      later request round trip, including the wait for a response. *)

  val exec : t -> string -> string
  (** Execute DBPL statements, returning their printed output. *)

  val query : t -> string -> int * string list * Tuple.t list
  (** Evaluate one [QUERY ...;] statement: observed snapshot version,
      column names, and result tuples. *)

  val snapshot : t -> int * int option * int * int * string
  (** [SHOW SNAPSHOT] structured: version, durable LSN, relation count,
      view count, and the rendered summary. *)

  val metrics : t -> [ `Text | `Json ] -> string

  val close : t -> unit
  (** Send [Bye] (best effort) and close the socket.  Idempotent. *)
end
