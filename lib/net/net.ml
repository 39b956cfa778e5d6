(* The network front end: a Unix-socket/TCP listener serving the wire
   protocol over Server sessions, and the client used by tests, bench,
   and [dbpl connect].

   Thread model: one accept thread per listener, one thread per
   connection.  Connection threads spend their lives blocked in
   [read]/[write] (releasing the runtime lock) or inside [Server] calls
   — reads evaluate on pool worker domains, writes block on the
   writer's group commit.  The writer thread itself never touches a
   socket, so a slow, stalled, or hostile peer can only ever wedge its
   own connection thread.

   Frame I/O, shared by connection threads and [Client]: one [read] and
   one [write] per frame.  Each connection owns a small read buffer;
   one read(2) takes whatever has arrived — a whole request, several
   pipelined ones, the preamble with the first request — and frames are
   cut out of it; a payload larger than the buffer is read straight
   into its own bytes.  Timeouts are kernel socket timeouts: SO_SNDTIMEO
   is set once per socket, SO_RCVTIMEO only when the wanted timeout
   changes, and a timed-out call ([EAGAIN]) raises [Timeout].  No
   [select] runs on the frame path; only the accept loop's 0.25 s tick
   uses it.

   - the length prefix of an incoming frame is validated against this
     side's [max_frame] before one body byte is read or allocated, so a
     hostile peer cannot balloon memory;
   - every read and write of an in-flight frame runs under [io_timeout];
     a peer that stalls mid-frame is disconnected — only *waiting for a
     new request* (the idle gap between statements) is exempt;
   - any protocol violation (bad CRC, unknown tag, oversized claim)
     earns a best-effort [Err Protocol] response and a closed
     connection, never a crash.

   Instruments: dc_net_connections (gauge), dc_net_connections_total,
   dc_net_frames_total{dir}, dc_net_bytes_total{dir},
   dc_net_protocol_errors_total, dc_net_requests_total{kind}. *)

open Dc_relation
open Dc_core
module Codec = Dc_wal.Codec
module Guard = Dc_guard.Guard
module Obs = Dc_obs.Obs
module Server = Dc_server.Server

exception Timeout

(* a peer closing mid-write must surface as EPIPE on the offending
   connection, not kill the whole process *)
let ignore_sigpipe =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())

type addr = Unix_sock of string | Tcp of string * int

let pp_addr ppf = function
  | Unix_sock path -> Fmt.pf ppf "unix:%s" path
  | Tcp (host, port) -> Fmt.pf ppf "tcp:%s:%d" host port

(* "unix:/path", "/path", "tcp:host:port", "host:port", ":port", "port" *)
let addr_of_string s =
  let s = String.trim s in
  let tcp rest =
    match String.rindex_opt rest ':' with
    | Some i ->
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      let host = if host = "" then "127.0.0.1" else host in
      (match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 -> Some (Tcp (host, p))
      | _ -> None)
    | None -> (
      match int_of_string_opt rest with
      | Some p when p >= 0 && p < 65536 -> Some (Tcp ("127.0.0.1", p))
      | _ -> None)
  in
  if s = "" then None
  else if String.length s >= 5 && String.sub s 0 5 = "unix:" then
    Some (Unix_sock (String.sub s 5 (String.length s - 5)))
  else if String.length s >= 4 && String.sub s 0 4 = "tcp:" then
    tcp (String.sub s 4 (String.length s - 4))
  else if s.[0] = '/' || s.[0] = '.' then Some (Unix_sock s)
  else tcp s

(* ------------------------------------------------------------------ *)
(* Instruments *)

let g_conns = lazy (Obs.Gauge.make "dc_net_connections")
let c_conns = lazy (Obs.Counter.make "dc_net_connections_total")
let c_proto_errors = lazy (Obs.Counter.make "dc_net_protocol_errors_total")

let dir_counter name dir = Obs.Counter.make ~labels:[ ("dir", dir) ] name
let c_frames_in = lazy (dir_counter "dc_net_frames_total" "in")
let c_frames_out = lazy (dir_counter "dc_net_frames_total" "out")
let c_bytes_in = lazy (dir_counter "dc_net_bytes_total" "in")
let c_bytes_out = lazy (dir_counter "dc_net_bytes_total" "out")

let c_requests kind =
  Obs.Counter.make ~labels:[ ("kind", kind) ] "dc_net_requests_total"

let c_req_stmt = lazy (c_requests "stmt")
let c_req_query = lazy (c_requests "query")
let c_req_other = lazy (c_requests "other")

(* ------------------------------------------------------------------ *)
(* Frame I/O: one read and one write per frame *)

(* Small, so idle connections cost little: frames larger than this take
   the direct path ([read_direct]). *)
let read_buffer_size = 16 * 1024

let header_length = 8 (* u32 payload length, u32 CRC *)

(* The SO_RCVTIMEO/SO_SNDTIMEO value for a timeout.  A negative timeout
   waits forever, which the kernel spells 0; a timeout of 0 must not
   become forever, so it is raised to a millisecond.  The top clamp
   keeps the seconds within a C int. *)
let sockopt_timeout t = if t < 0. then 0. else Float.min (Float.max t 1e-3) 1e9

(* Writes are bounded by SO_SNDTIMEO, set once per socket. *)
let set_send_timeout fd t =
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO (sockopt_timeout t)

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int; (* first unconsumed byte *)
  mutable lim : int; (* one past the last byte read *)
  mutable rcvtimeo : float; (* SO_RCVTIMEO as last set; 0 is the default *)
}

let reader fd =
  { fd; buf = Bytes.create read_buffer_size; pos = 0; lim = 0; rcvtimeo = 0. }

let torn () = raise (Wire.Protocol_error "connection closed mid-frame")

(* One read(2) into [dst] under [timeout]; 0 is end of stream.  The
   socket option changes only when the wanted timeout does. *)
let read_some r ~timeout dst off len =
  let v = sockopt_timeout timeout in
  if v <> r.rcvtimeo then begin
    Unix.setsockopt_float r.fd Unix.SO_RCVTIMEO v;
    r.rcvtimeo <- v
  end;
  let rec go () =
    match Unix.read r.fd dst off len with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise Timeout
  in
  go ()

(* Make [n <= read_buffer_size] bytes available at [r.pos].  With
   nothing buffered, the first read waits up to [first]; every other
   read up to [timeout].  [false] is a clean end of stream with nothing
   buffered; an end of stream inside a frame is a torn frame. *)
let fill r ~first ~timeout n =
  if r.pos = r.lim then begin
    r.pos <- 0;
    r.lim <- 0
  end
  else if r.pos + n > Bytes.length r.buf then begin
    Bytes.blit r.buf r.pos r.buf 0 (r.lim - r.pos);
    r.lim <- r.lim - r.pos;
    r.pos <- 0
  end;
  let rec go wait =
    if r.lim - r.pos >= n then true
    else
      let room = Bytes.length r.buf - r.lim in
      match read_some r ~timeout:wait r.buf r.lim room with
      | 0 -> if r.lim = r.pos then false else torn ()
      | got ->
        r.lim <- r.lim + got;
        go timeout
  in
  go (if r.pos = r.lim then first else timeout)

let take r n =
  let s = Bytes.sub_string r.buf r.pos n in
  r.pos <- r.pos + n;
  s

(* Read exactly [n <= read_buffer_size] bytes under [timeout] per read.
   [eof_ok] permits a clean end of stream before the first byte
   (returns [None]). *)
let read_exact ?(eof_ok = false) r ~timeout n =
  if fill r ~first:timeout ~timeout n then Some (take r n)
  else if eof_ok then None
  else torn ()

(* A payload larger than the buffer: what is buffered, then reads
   straight into its own bytes. *)
let read_direct r ~timeout len =
  let p = Bytes.create len in
  let have = r.lim - r.pos in
  Bytes.blit r.buf r.pos p 0 have;
  r.pos <- 0;
  r.lim <- 0;
  let rec go got =
    if got < len then
      match read_some r ~timeout p got (len - got) with
      | 0 -> torn ()
      | n -> go (got + n)
  in
  go have;
  Bytes.unsafe_to_string p

(* Read the peer's preamble; its bytes count as incoming, as this side's
   preamble counts as outgoing in [write_all]. *)
let read_preamble ?eof_ok r ~timeout =
  let pre = read_exact ?eof_ok r ~timeout Wire.preamble_length in
  if Option.is_some pre && Obs.on () then
    Obs.Counter.add (Lazy.force c_bytes_in) Wire.preamble_length;
  Option.map Wire.decode_preamble pre

let u32_at b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFF_FFFF

(* Receive one frame payload.  The 8-byte header's declared length is
   checked against [max_frame] before any payload byte is read or
   allocated — an oversized claim never allocates.  [idle] bounds the
   wait for the first header byte (the between-requests gap); [timeout]
   bounds every later read. *)
let recv_frame ~idle r ~timeout ~max_frame =
  if not (fill r ~first:idle ~timeout header_length) then None
  else begin
    let len = u32_at r.buf r.pos in
    let crc = u32_at r.buf (r.pos + 4) in
    if len > max_frame then
      raise
        (Wire.Protocol_error
           (Fmt.str "frame of %d bytes exceeds max_frame %d" len max_frame));
    r.pos <- r.pos + header_length;
    let payload =
      if len <= Bytes.length r.buf then
        if fill r ~first:timeout ~timeout len then take r len else torn ()
      else read_direct r ~timeout len
    in
    if Codec.crc32 payload <> crc then
      raise (Wire.Protocol_error "frame CRC mismatch");
    if Obs.on () then begin
      Obs.Counter.inc (Lazy.force c_frames_in);
      Obs.Counter.add (Lazy.force c_bytes_in) (len + header_length)
    end;
    Some payload
  end

(* Write all of [s]: one write(2) per 64 KiB (the runtime's I/O chunk),
   each bounded by the socket's SO_SNDTIMEO. *)
let write_all fd s =
  let len = String.length s in
  let rec go sent =
    if sent < len then
      match Unix.single_write_substring fd s sent (len - sent) with
      | n -> go (sent + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go sent
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        raise Timeout
  in
  go 0;
  if Obs.on () then Obs.Counter.add (Lazy.force c_bytes_out) len

(* Send one frame built by [Wire.frame_*]: the one string the encoder
   produced. *)
let send_frame fd frame =
  write_all fd frame;
  if Obs.on () then Obs.Counter.inc (Lazy.force c_frames_out)

(* ------------------------------------------------------------------ *)
(* Error taxonomy *)

let classify_exn : exn -> Wire.error_code * string = function
  | Dc_lang.Lexer.Lex_error m | Dc_lang.Parser.Parse_error m -> (Wire.Parse, m)
  | Dc_calculus.Typecheck.Error m -> (Wire.Type, m)
  | Dc_lang.Elaborate.Elab_error m
  | Database.Error m
  | Dc_ivm.Ivm.Error m
  | Dc_calculus.Eval.Runtime_error m
  | Fixpoint.Divergence m
  | Relation.Key_violation m
  | Selector.Selector_violation m
  | Dc_datalog.Stratify.Not_stratifiable m ->
    (Wire.Semantic, m)
  | Dc_agg.Agg.Inadmissible v -> (Wire.Semantic, Fmt.str "%a" Dc_agg.Agg.pp_violation v)
  | Guard.Exhausted (reason, progress) ->
    (Wire.Limit, Fmt.str "%a" Guard.pp_report (reason, progress))
  | Server.Error m -> (Wire.Server, m)
  | Wire.Protocol_error m | Codec.Corrupt m -> (Wire.Protocol, m)
  | e -> (Wire.Internal, Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Listener *)

type conn = { c_fd : Unix.file_descr; mutable c_thread : Thread.t option }

type listener = {
  srv : Server.t;
  addr : addr;
  lfd : Unix.file_descr;
  sockaddr : Unix.sockaddr;
  max_frame : int;
  io_timeout : float;
  idle_timeout : float;
  m : Mutex.t;
  mutable conns : conn list;
  mutable accept_thread : Thread.t option;
  mutable stopping : bool;
}

let bound_addr l = Unix.getsockname l.lfd

let bound_port l =
  match bound_addr l with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Net.bound_port: unix socket"

(* The response frame to one request.  A query result is framed from the
   relation in place, with no row list built. *)
let handle_request l session = function
  | Wire.Stmt src ->
    if Obs.on () then Obs.Counter.inc (Lazy.force c_req_stmt);
    Wire.frame_response (Wire.Output (Server.execute session src))
  | Wire.Query src ->
    if Obs.on () then Obs.Counter.inc (Lazy.force c_req_query);
    let rel, version = Server.query_string session src in
    Wire.frame_rows ~version rel
  | Wire.Snapshot ->
    if Obs.on () then Obs.Counter.inc (Lazy.force c_req_other);
    let snap = Database.snapshot (Server.db l.srv) in
    Wire.frame_response
      (Wire.Snap
         {
           version = Snapshot.version snap;
           durable_lsn = Snapshot.durable_lsn snap;
           relations = Snapshot.relation_count snap;
           views = List.length (Snapshot.view_names snap);
           summary = Fmt.str "%a" Snapshot.pp_summary snap;
         })
  | Wire.Metrics fmt ->
    if Obs.on () then Obs.Counter.inc (Lazy.force c_req_other);
    Wire.frame_response
      (Wire.Metrics_body
         (match fmt with `Text -> Obs.to_prometheus () | `Json -> Obs.to_json ()))
  | Wire.Bye ->
    if Obs.on () then Obs.Counter.inc (Lazy.force c_req_other);
    Wire.frame_response Wire.Bye_ok

let send_response fd resp = send_frame fd (Wire.frame_response resp)

(* Serve one connection to completion.  Raises nothing: every exit path
   is a normal return; the caller closes the socket. *)
let serve_conn l fd =
  set_send_timeout fd l.io_timeout;
  let r = reader fd in
  (* handshake: the client preamble must arrive within io_timeout — an
     endpoint that connects and says nothing is not yet a session.  The
     preamble goes through the connection's reader, so a first request
     that arrived with it stays buffered. *)
  match read_preamble ~eof_ok:true r ~timeout:l.io_timeout with
  | None -> ()
  | exception e ->
    if Obs.on () then Obs.Counter.inc (Lazy.force c_proto_errors);
    let code, message = classify_exn e in
    (try send_response fd (Wire.Err { code; message }) with _ -> ())
  | Some peer_max -> (
    match write_all fd (Wire.encode_preamble ~max_frame:l.max_frame) with
    | exception _ -> ()
    | () -> (
      match Server.open_session l.srv with
      | exception e ->
        let code, message = classify_exn e in
        (try send_response fd (Wire.Err { code; message }) with _ -> ())
      | session ->
        let send_checked frame =
          let len = Wire.frame_payload_length frame in
          if len > peer_max then
            send_response fd
              (Wire.Err
                 {
                   code = Wire.Server;
                   message =
                     Fmt.str "response of %d bytes exceeds peer max_frame %d"
                       len peer_max;
                 })
          else send_frame fd frame
        in
        let send resp = send_checked (Wire.frame_response resp) in
        let rec loop () =
          match
            recv_frame ~idle:l.idle_timeout r ~timeout:l.io_timeout
              ~max_frame:l.max_frame
          with
          | None -> () (* clean EOF between requests *)
          | Some payload -> (
            match Wire.decode_request payload with
            | exception e ->
              if Obs.on () then Obs.Counter.inc (Lazy.force c_proto_errors);
              let code, message = classify_exn e in
              (try send (Wire.Err { code; message }) with _ -> ())
            | Wire.Bye -> ( try send Wire.Bye_ok with _ -> ())
            | req ->
              let frame =
                try handle_request l session req
                with e ->
                  let code, message = classify_exn e in
                  Wire.frame_response (Wire.Err { code; message })
              in
              send_checked frame;
              loop ())
          | exception Timeout -> ()
          | exception e ->
            (* transport-level violation: oversized claim, CRC mismatch,
               torn frame — answer if the pipe still works, then drop *)
            if Obs.on () then Obs.Counter.inc (Lazy.force c_proto_errors);
            let code, message = classify_exn e in
            (try send (Wire.Err { code; message }) with _ -> ())
        in
        let finally () = Server.close_session session in
        Fun.protect ~finally (fun () -> try loop () with _ -> ())))

let conn_thread l conn () =
  (try serve_conn l conn.c_fd with _ -> ());
  (try Unix.close conn.c_fd with _ -> ());
  Mutex.protect l.m (fun () ->
      l.conns <- List.filter (fun c -> c != conn) l.conns);
  if Obs.on () then Obs.Gauge.add (Lazy.force g_conns) (-1.)

let accept_loop l () =
  let continue = ref true in
  while !continue do
    (* poll so [stop] is noticed: closing an fd does not wake a thread
       blocked in accept(2) *)
    if Mutex.protect l.m (fun () -> l.stopping) then continue := false
    else
      match Unix.select [ l.lfd ] [] [] 0.25 with
      | [], _, _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) -> ()
      | exception _ -> continue := false
      | _ -> (
        match Unix.accept ~cloexec:true l.lfd with
    | fd, _peer ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> () (* unix-domain sockets *));
      let conn = { c_fd = fd; c_thread = None } in
      let admitted =
        Mutex.protect l.m (fun () ->
            if l.stopping then false
            else begin
              l.conns <- conn :: l.conns;
              true
            end)
      in
      if admitted then begin
        if Obs.on () then begin
          Obs.Gauge.add (Lazy.force g_conns) 1.;
          Obs.Counter.inc (Lazy.force c_conns)
        end;
        conn.c_thread <- Some (Thread.create (conn_thread l conn) ())
      end
          else (try Unix.close fd with _ -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception _ ->
          (* the listening socket was closed by [stop] *)
          continue := false)
  done

let listen ?(max_frame = Wire.default_max_frame) ?(io_timeout = 30.)
    ?(idle_timeout = -1.) srv addr =
  if max_frame < Wire.min_max_frame then
    invalid_arg "Net.listen: max_frame below Wire.min_max_frame";
  Lazy.force ignore_sigpipe;
  let domain, sockaddr =
    match addr with
    | Unix_sock path ->
      (* a stale socket file from a dead process blocks bind *)
      (match (Unix.stat path).Unix.st_kind with
      | Unix.S_SOCK -> ( try Unix.unlink path with _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
      (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } ->
            invalid_arg (Fmt.str "Net.listen: cannot resolve %s" host)
          | { Unix.h_addr_list; _ } -> h_addr_list.(0)
          | exception Not_found ->
            invalid_arg (Fmt.str "Net.listen: cannot resolve %s" host))
      in
      (Unix.PF_INET, Unix.ADDR_INET (inet, port))
  in
  let lfd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try
     (match addr with
     | Tcp _ -> Unix.setsockopt lfd Unix.SO_REUSEADDR true
     | Unix_sock _ -> ());
     Unix.bind lfd sockaddr;
     Unix.listen lfd 64
   with e ->
     (try Unix.close lfd with _ -> ());
     raise e);
  let l =
    {
      srv;
      addr;
      lfd;
      sockaddr;
      max_frame;
      io_timeout;
      idle_timeout;
      m = Mutex.create ();
      conns = [];
      accept_thread = None;
      stopping = false;
    }
  in
  l.accept_thread <- Some (Thread.create (accept_loop l) ());
  l

let stop l =
  let first =
    Mutex.protect l.m (fun () ->
        if l.stopping then false
        else begin
          l.stopping <- true;
          true
        end)
  in
  if first then begin
    (* the accept loop polls [stopping]; join it before closing its fd *)
    (match l.accept_thread with
    | Some th ->
      Thread.join th;
      l.accept_thread <- None
    | None -> ());
    (try Unix.close l.lfd with _ -> ());
    (* shut live connections down (threads close the fds themselves) *)
    let conns = Mutex.protect l.m (fun () -> l.conns) in
    List.iter
      (fun c -> try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with _ -> ())
      conns;
    List.iter (fun c -> Option.iter Thread.join c.c_thread) conns;
    match l.addr with
    | Unix_sock path -> ( try Unix.unlink path with _ -> ())
    | Tcp _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Client *)

module Client = struct
  exception Remote of Wire.error_code * string

  (* The server answers our preamble with its own, or, when it refuses
     ours (another protocol version), with an [Err] frame and a close:
     that frame's message is the handshake's error. *)
  let server_preamble r ~timeout ~max_frame =
    if
      fill r ~first:timeout ~timeout 4
      && not (String.equal (Bytes.sub_string r.buf r.pos 4) Wire.magic)
    then
      let message =
        match recv_frame ~idle:timeout r ~timeout ~max_frame with
        | Some payload -> (
          match Wire.decode_response payload with
          | Wire.Err { message; _ } -> message
          | _ | (exception Codec.Corrupt _) -> "a frame before its preamble")
        | None -> torn ()
      in
      raise (Wire.Protocol_error ("server refused the handshake: " ^ message))
    else Option.get (read_preamble r ~timeout)

  type t = {
    fd : Unix.file_descr;
    rd : reader; (* the connection's read buffer *)
    max_frame : int; (* bound on incoming frames *)
    peer_max : int; (* the server's advertised bound *)
    timeout : float;
    m : Mutex.t; (* one in-flight request per client *)
    mutable closed : bool;
  }

  let connect ?(max_frame = Wire.default_max_frame) ?(timeout = 30.) addr =
    Lazy.force ignore_sigpipe;
    let domain, sockaddr =
      match addr with
      | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
      | Tcp (host, port) ->
        let inet =
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } -> raise Not_found
            | { Unix.h_addr_list; _ } -> h_addr_list.(0))
        in
        (Unix.PF_INET, Unix.ADDR_INET (inet, port))
    in
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    try
      Unix.connect fd sockaddr;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      set_send_timeout fd timeout;
      write_all fd (Wire.encode_preamble ~max_frame);
      let rd = reader fd in
      let peer_max = server_preamble rd ~timeout ~max_frame in
      {
        fd;
        rd;
        max_frame;
        peer_max;
        timeout;
        m = Mutex.create ();
        closed = false;
      }
    with e ->
      (try Unix.close fd with _ -> ());
      raise e

  let close c =
    if not c.closed then begin
      c.closed <- true;
      (* best-effort goodbye so the server logs a clean disconnect *)
      (try
         send_frame c.fd (Wire.frame_request Wire.Bye);
         ignore
           (recv_frame ~idle:c.timeout c.rd ~timeout:c.timeout
              ~max_frame:c.max_frame)
       with _ -> ());
      try Unix.close c.fd with _ -> ()
    end

  let roundtrip c req =
    Mutex.protect c.m (fun () ->
        if c.closed then raise (Remote (Wire.Server, "client is closed"));
        let frame = Wire.frame_request req in
        let len = Wire.frame_payload_length frame in
        if len > c.peer_max then
          raise
            (Remote
               ( Wire.Protocol,
                 Fmt.str "request of %d bytes exceeds server max_frame %d"
                   len c.peer_max ));
        send_frame c.fd frame;
        match
          recv_frame ~idle:c.timeout c.rd ~timeout:c.timeout
            ~max_frame:c.max_frame
        with
        | None ->
          c.closed <- true;
          (try Unix.close c.fd with _ -> ());
          raise (Remote (Wire.Server, "server closed the connection"))
        | Some resp -> (
          match Wire.decode_response resp with
          | Wire.Err { code; message } -> raise (Remote (code, message))
          | resp -> resp))

  let exec c src =
    match roundtrip c (Wire.Stmt src) with
    | Wire.Output out -> out
    | r ->
      raise
        (Remote (Wire.Protocol, Fmt.str "unexpected reply %a" Wire.pp_response r))

  let query c src =
    match roundtrip c (Wire.Query src) with
    | Wire.Rows { version; columns; tuples } -> (version, columns, tuples)
    | r ->
      raise
        (Remote (Wire.Protocol, Fmt.str "unexpected reply %a" Wire.pp_response r))

  let snapshot c =
    match roundtrip c Wire.Snapshot with
    | Wire.Snap s -> (s.version, s.durable_lsn, s.relations, s.views, s.summary)
    | r ->
      raise
        (Remote (Wire.Protocol, Fmt.str "unexpected reply %a" Wire.pp_response r))

  let metrics c fmt =
    match roundtrip c (Wire.Metrics fmt) with
    | Wire.Metrics_body body -> body
    | r ->
      raise
        (Remote (Wire.Protocol, Fmt.str "unexpected reply %a" Wire.pp_response r))
end
