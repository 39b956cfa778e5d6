(** The DBPL wire protocol: frame grammar and payload codecs, pure
    bytes-in/bytes-out (no sockets — the protocol fuzzer drives these
    decoders directly).

    Connections open with a fixed 9-byte preamble (magic ["DCNP"], one
    version byte, a little-endian u32 advertising the largest frame
    payload the sender accepts), client first, server answering with its
    own.  Every subsequent message is one CRC-framed payload in the
    WAL's {!Dc_wal.Codec} convention — [\[u32 len\]\[u32 crc\]\[payload\]]
    — whose first byte is the message tag.  One request frame yields
    exactly one response frame.

    A [Rows] payload is column-major under the result's schema: the
    snapshot version, the column names, the row count, one kind byte
    per column (Int, Str, Bool, Float), a dictionary holding each
    distinct string of the frame once, then each column's cells untagged
    — Str as varint dictionary ids, Int as zigzag varints, Bool as a
    byte, Float as 8 bytes.  The WAL and checkpoints keep
    {!Dc_wal.Codec}'s tagged tuples. *)

open Dc_relation

exception Protocol_error of string
(** A peer violated the protocol (bad preamble, oversized frame claim,
    CRC mismatch at the transport layer).  Distinct from
    {!Dc_wal.Codec.Corrupt}, which the payload decoders raise on
    malformed message bodies; the listener maps both to an [Err]
    response with the [Protocol] code and closes the connection. *)

val magic : string
val version : int
(** The protocol version the preamble carries (2: column-major [Rows]);
    a peer speaking another is refused at the handshake. *)

val default_max_frame : int
(** Default bound on incoming frame payloads (8 MiB). *)

val min_max_frame : int
(** Smallest advertisable bound (4 KiB) — a peer claiming less is
    rejected at the handshake. *)

val preamble_length : int

(** {1 Messages} *)

type error_code =
  | Parse
  | Type
  | Semantic
  | Limit
  | Server
  | Protocol
  | Internal

type request =
  | Stmt of string  (** execute statements; replied with [Output] *)
  | Query of string  (** exactly one QUERY; replied with [Rows] *)
  | Snapshot  (** replied with [Snap] *)
  | Metrics of [ `Text | `Json ]  (** replied with [Metrics_body] *)
  | Bye  (** replied with [Bye_ok]; the connection then closes *)

type response =
  | Output of string
  | Rows of { version : int; columns : string list; tuples : Tuple.t list }
      (** query result with the snapshot version it observed; every tuple
          has one cell per column, and each column one kind *)
  | Snap of {
      version : int;
      durable_lsn : int option;
      relations : int;
      views : int;
      summary : string;
    }
  | Metrics_body of string
  | Bye_ok
  | Err of { code : error_code; message : string }

(** {1 Handshake} *)

val encode_preamble : max_frame:int -> string

val decode_preamble : string -> int
(** Validate a peer preamble and return its advertised [max_frame].
    @raise Protocol_error on bad magic, version, or bound. *)

(** {1 Payload codecs}

    [encode_*] produce the unframed payload; [frame_*] produce the whole
    frame, byte-identical to {!Dc_wal.Codec.frame_string} of the payload
    but built in one copy (what the transport sends).  Decoders are
    strict — an unknown tag, a malformed body, or trailing bytes raise
    {!Dc_wal.Codec.Corrupt}, and nothing else; a [Rows] body is checked
    whole before any count it claims is allocated.  Encoding a [Rows]
    whose tuples do not fit its columns (an arity other than the column
    count, two kinds in one column, more than one row of arity 0) raises
    [Invalid_argument].  Decoded strings are interned ({!Value.str}),
    once per distinct string of a frame. *)

val encode_request : request -> string
val decode_request : string -> request
val encode_response : response -> string
val decode_response : string -> response

val frame_request : request -> string
val frame_response : response -> string

val frame_rows : version:int -> Relation.t -> string
(** [frame_response (Rows {version; columns; tuples})] for the relation's
    attribute names and tuples, encoded from the relation in place (the
    same encoder, with the kinds of its schema). *)

val frame_payload_length : string -> int
(** Payload length of a frame built by [frame_*]. *)

(** {1 Comparison and printing (tests)} *)

val error_code_to_int : error_code -> int
val error_code_of_int : int -> error_code
val pp_error_code : error_code Fmt.t
val equal_request : request -> request -> bool
val equal_response : response -> response -> bool
val pp_request : request Fmt.t
val pp_response : response Fmt.t
