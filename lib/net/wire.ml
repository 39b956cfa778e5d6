(* The wire protocol: frame grammar and payload codecs.

   Everything after the handshake travels in the WAL's framing
   convention ([Codec]): [u32 len][u32 crc32(payload)][payload], varints
   and tagged values inside.  One request frame yields exactly one
   response frame; the first payload byte is the message tag.

   Handshake: the client speaks first with a fixed 9-byte preamble —
   magic "DCNP", one protocol-version byte, and a little-endian u32
   advertising the largest frame *payload* the sender is willing to
   receive.  The server validates and answers with its own preamble.
   Each side enforces its own bound on incoming frames (the length
   prefix is checked against it before the body is read or allocated)
   and respects the peer's bound when sending.

   This module is pure bytes-in/bytes-out — no sockets — so the
   protocol fuzzer exercises every decoder without a listener. *)

open Dc_relation
module Codec = Dc_wal.Codec

exception Protocol_error of string

let proto_error fmt = Fmt.kstr (fun s -> raise (Protocol_error s)) fmt
let magic = "DCNP"
let version = 1
let default_max_frame = 8 * 1024 * 1024
let min_max_frame = 4096
let preamble_length = String.length magic + 1 + 4

(* ------------------------------------------------------------------ *)
(* Messages *)

type error_code =
  | Parse (* lexing / parsing *)
  | Type (* typechecking *)
  | Semantic (* elaboration, storage, constraint violations *)
  | Limit (* guard budget exhausted *)
  | Server (* admission control, shutdown, overload *)
  | Protocol (* malformed frame or message *)
  | Internal (* anything unclassified *)

let error_code_to_int = function
  | Parse -> 1
  | Type -> 2
  | Semantic -> 3
  | Limit -> 4
  | Server -> 5
  | Protocol -> 6
  | Internal -> 7

let error_code_of_int = function
  | 1 -> Parse
  | 2 -> Type
  | 3 -> Semantic
  | 4 -> Limit
  | 5 -> Server
  | 6 -> Protocol
  | 7 -> Internal
  | n -> raise (Codec.Corrupt (Fmt.str "unknown error code %d" n))

let pp_error_code ppf c =
  Fmt.string ppf
    (match c with
    | Parse -> "parse"
    | Type -> "type"
    | Semantic -> "semantic"
    | Limit -> "limit"
    | Server -> "server"
    | Protocol -> "protocol"
    | Internal -> "internal")

type request =
  | Stmt of string (* execute statements, reply [Output] *)
  | Query of string (* one QUERY statement, reply [Rows] *)
  | Snapshot (* reply [Snap] *)
  | Metrics of [ `Text | `Json ] (* reply [Metrics_body] *)
  | Bye (* reply [Bye_ok], then the connection closes *)

type response =
  | Output of string
  | Rows of { version : int; columns : string list; tuples : Tuple.t list }
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

(* ------------------------------------------------------------------ *)
(* Handshake preamble *)

let encode_preamble ~max_frame =
  let buf = Buffer.create preamble_length in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Codec.u32 buf max_frame;
  Buffer.contents buf

let decode_preamble s =
  if String.length s <> preamble_length then
    proto_error "preamble: expected %d bytes, got %d" preamble_length
      (String.length s);
  if not (String.equal (String.sub s 0 4) magic) then
    proto_error "preamble: bad magic %S (not a DBPL peer?)" (String.sub s 0 4);
  let v = Char.code s.[4] in
  if v <> version then
    proto_error "preamble: protocol version %d, this peer speaks %d" v version;
  let max_frame = Codec.read_u32 (Codec.cursor ~pos:5 s) in
  if max_frame < min_max_frame then
    proto_error "preamble: max_frame %d below the floor %d" max_frame
      min_max_frame;
  max_frame

(* ------------------------------------------------------------------ *)
(* Payload codecs *)

let tag_stmt = 0x01
let tag_query = 0x02
let tag_snapshot = 0x03
let tag_metrics = 0x04
let tag_bye = 0x05
let tag_output = 0x81
let tag_rows = 0x82
let tag_snap = 0x83
let tag_metrics_body = 0x84
let tag_bye_ok = 0x85
let tag_err = 0x7f

(* A message is built once, after an 8-byte placeholder for its frame
   header: the framed form back-patches length and CRC into the one copy
   out of the buffer, and the bare payload is the buffer past the
   placeholder.  The buffer starts small — a multi-KiB initial buffer
   would be a major-heap allocation on every response. *)
let header_length = 8
let header_placeholder = String.make header_length '\000'

let with_tag tag fill =
  let buf = Buffer.create 64 in
  Buffer.add_string buf header_placeholder;
  Buffer.add_char buf (Char.chr tag);
  fill buf;
  buf

let payload buf =
  Buffer.sub buf header_length (Buffer.length buf - header_length)

let framed buf =
  let b = Buffer.to_bytes buf in
  let len = Bytes.length b - header_length in
  let crc = Codec.crc32 ~pos:header_length (Bytes.unsafe_to_string b) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int crc);
  Bytes.unsafe_to_string b

let build_request = function
  | Stmt src -> with_tag tag_stmt (fun b -> Codec.string_ b src)
  | Query src -> with_tag tag_query (fun b -> Codec.string_ b src)
  | Snapshot -> with_tag tag_snapshot ignore
  | Metrics fmt ->
    with_tag tag_metrics (fun b ->
        Codec.varint b (match fmt with `Text -> 0 | `Json -> 1))
  | Bye -> with_tag tag_bye ignore

let build_response = function
  | Output s -> with_tag tag_output (fun b -> Codec.string_ b s)
  | Rows { version; columns; tuples } ->
    with_tag tag_rows (fun b ->
        Codec.varint b version;
        Codec.varint b (List.length columns);
        List.iter (Codec.string_ b) columns;
        Codec.tuples b tuples)
  | Snap { version; durable_lsn; relations; views; summary } ->
    with_tag tag_snap (fun b ->
        Codec.varint b version;
        Codec.zigzag b (match durable_lsn with Some l -> l | None -> -1);
        Codec.varint b relations;
        Codec.varint b views;
        Codec.string_ b summary)
  | Metrics_body s -> with_tag tag_metrics_body (fun b -> Codec.string_ b s)
  | Bye_ok -> with_tag tag_bye_ok ignore
  | Err { code; message } ->
    with_tag tag_err (fun b ->
        Codec.varint b (error_code_to_int code);
        Codec.string_ b message)

let encode_request r = payload (build_request r)
let encode_response r = payload (build_response r)
let frame_request r = framed (build_request r)
let frame_response r = framed (build_response r)
let frame_payload_length frame = String.length frame - header_length

(* Strict decoders: a tag the peer does not know, or trailing bytes
   after a well-formed body, is [Codec.Corrupt] — the fuzzer checks that
   no input crashes with anything else. *)

let open_payload payload =
  if String.length payload = 0 then
    raise (Codec.Corrupt "empty message payload");
  (Char.code payload.[0], Codec.cursor ~pos:1 payload)

let finish c v =
  if not (Codec.at_end c) then
    raise (Codec.Corrupt "trailing bytes after message body");
  v

let decode_request payload =
  let tag, c = open_payload payload in
  if tag = tag_stmt then finish c (Stmt (Codec.read_string c))
  else if tag = tag_query then finish c (Query (Codec.read_string c))
  else if tag = tag_snapshot then finish c Snapshot
  else if tag = tag_metrics then
    finish c
      (Metrics
         (match Codec.read_varint c with
         | 0 -> `Text
         | 1 -> `Json
         | n -> raise (Codec.Corrupt (Fmt.str "unknown metrics format %d" n))))
  else if tag = tag_bye then finish c Bye
  else raise (Codec.Corrupt (Fmt.str "unknown request tag 0x%02x" tag))

let decode_response payload =
  let tag, c = open_payload payload in
  if tag = tag_output then finish c (Output (Codec.read_string c))
  else if tag = tag_rows then begin
    let version = Codec.read_varint c in
    let n = Codec.read_varint c in
    if n < 0 then raise (Codec.Corrupt "negative column count");
    let columns = List.init n (fun _ -> Codec.read_string c) in
    let tuples = Codec.read_tuples c in
    finish c (Rows { version; columns; tuples })
  end
  else if tag = tag_snap then begin
    let version = Codec.read_varint c in
    let lsn = Codec.read_zigzag c in
    let relations = Codec.read_varint c in
    let views = Codec.read_varint c in
    let summary = Codec.read_string c in
    finish c
      (Snap
         {
           version;
           durable_lsn = (if lsn < 0 then None else Some lsn);
           relations;
           views;
           summary;
         })
  end
  else if tag = tag_metrics_body then
    finish c (Metrics_body (Codec.read_string c))
  else if tag = tag_bye_ok then finish c Bye_ok
  else if tag = tag_err then begin
    let code = error_code_of_int (Codec.read_varint c) in
    let message = Codec.read_string c in
    finish c (Err { code; message })
  end
  else raise (Codec.Corrupt (Fmt.str "unknown response tag 0x%02x" tag))

(* ------------------------------------------------------------------ *)
(* Equality and printing (tests) *)

let equal_request (a : request) (b : request) =
  match (a, b) with
  | Stmt x, Stmt y | Query x, Query y -> String.equal x y
  | Snapshot, Snapshot | Bye, Bye -> true
  | Metrics x, Metrics y -> x = y
  | _ -> false

let equal_response (a : response) (b : response) =
  match (a, b) with
  | Output x, Output y | Metrics_body x, Metrics_body y -> String.equal x y
  | Bye_ok, Bye_ok -> true
  | Rows a, Rows b ->
    a.version = b.version
    && List.equal String.equal a.columns b.columns
    && List.equal Tuple.equal a.tuples b.tuples
  | Snap a, Snap b ->
    a.version = b.version
    && a.durable_lsn = b.durable_lsn
    && a.relations = b.relations && a.views = b.views
    && String.equal a.summary b.summary
  | Err a, Err b -> a.code = b.code && String.equal a.message b.message
  | _ -> false

let pp_request ppf = function
  | Stmt s -> Fmt.pf ppf "Stmt %S" s
  | Query s -> Fmt.pf ppf "Query %S" s
  | Snapshot -> Fmt.string ppf "Snapshot"
  | Metrics `Text -> Fmt.string ppf "Metrics text"
  | Metrics `Json -> Fmt.string ppf "Metrics json"
  | Bye -> Fmt.string ppf "Bye"

let pp_response ppf = function
  | Output s -> Fmt.pf ppf "Output %S" s
  | Rows { version; columns; tuples } ->
    Fmt.pf ppf "Rows v%d %a (%d tuples)" version
      Fmt.(list ~sep:comma string)
      columns (List.length tuples)
  | Snap { version; _ } -> Fmt.pf ppf "Snap v%d" version
  | Metrics_body s -> Fmt.pf ppf "Metrics_body (%d bytes)" (String.length s)
  | Bye_ok -> Fmt.string ppf "Bye_ok"
  | Err { code; message } ->
    Fmt.pf ppf "Err %a %S" pp_error_code code message
