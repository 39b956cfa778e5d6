(* The wire protocol: frame grammar and payload codecs.

   Everything after the handshake travels in the WAL's framing
   convention ([Codec]): [u32 len][u32 crc32(payload)][payload], varints
   and strings inside.  One request frame yields exactly one response
   frame; the first payload byte is the message tag.  A result ([Rows])
   travels column-major with a per-frame string dictionary (below).

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
let version = 2
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

(* A message is built once, as a list of sinks whose first starts with
   an 8-byte placeholder for its frame header: the framed form
   back-patches length and CRC into the one copy out of the sinks, and
   the bare payload is that copy past the placeholder.  A sink is a
   growable byte array: a varint costs one capacity check and direct
   stores.  Sinks start small — a multi-KiB initial buffer would be a
   major-heap allocation on every response. *)
type sink = { mutable bytes : Bytes.t; mutable len : int }

let sink n = { bytes = Bytes.create n; len = 0 }

let reserve s n =
  if s.len + n > Bytes.length s.bytes then begin
    let b = Bytes.create (max (s.len + n) (2 * Bytes.length s.bytes)) in
    Bytes.blit s.bytes 0 b 0 s.len;
    s.bytes <- b
  end

let put_char s c =
  reserve s 1;
  Bytes.unsafe_set s.bytes s.len c;
  s.len <- s.len + 1

(* unsigned LEB128 over the 63 bits of [n], as {!Codec.varint} *)
let rec put_varint_at b pos n =
  if n land lnot 0x7F = 0 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr n);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (0x80 lor (n land 0x7F)));
    put_varint_at b (pos + 1) (n lsr 7)
  end

let put_varint s n =
  reserve s 9;
  s.len <- put_varint_at s.bytes s.len n

let put_zigzag s n = put_varint s ((n lsl 1) lxor (n asr 62))

let put_string s str =
  let n = String.length str in
  put_varint s n;
  reserve s n;
  Bytes.blit_string str 0 s.bytes s.len n;
  s.len <- s.len + n

let header_length = 8

let tagged tag =
  let s = sink 64 in
  s.len <- header_length;
  put_char s (Char.chr tag);
  s

let with_tag tag fill =
  let s = tagged tag in
  fill s;
  [ s ]

(* The parts laid end to end in one fresh string, less the first [from]
   bytes. *)
let rec blit_parts out pos skip = function
  | [] -> ()
  | s :: rest ->
    Bytes.blit s.bytes skip out pos (s.len - skip);
    blit_parts out (pos + s.len - skip) 0 rest

let concat ~from parts =
  let out = Bytes.create (List.fold_left (fun n s -> n + s.len) (-from) parts) in
  blit_parts out 0 from parts;
  out

let payload parts = Bytes.unsafe_to_string (concat ~from:header_length parts)

let framed parts =
  let b = concat ~from:0 parts in
  let len = Bytes.length b - header_length in
  let crc = Codec.crc32 ~pos:header_length (Bytes.unsafe_to_string b) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int crc);
  Bytes.unsafe_to_string b

(* ------------------------------------------------------------------ *)
(* Rows frames.  A result is a typed relation (§2), so both ends know
   its schema and no cell needs a tag.  The payload after the tag is

     version columns count kinds dictionary column*

   - version: the snapshot version (varint); columns: a varint and that
     many names; count: the row count (varint);
   - kinds: one byte per column, 0 Int, 1 Str, 2 Bool, 3 Float;
   - dictionary: a varint and that many strings, each distinct string of
     the frame once, in first-seen order (row by row);
   - then each column in turn, [count] cells of its kind: Str a varint
     dictionary id, Int a zigzag varint, Bool one byte (0 or 1), Float
     its 8 IEEE bytes, little-endian.

   The encoder walks the rows once, appending each cell to its column's
   sink, and allocates nothing per cell: a Str cell physically equal to
   the column's previous one reuses its id (a sorted first column is runs
   of one string), any other looks the string up in an open-addressed
   table.  The table and the column sinks are sized from the row count,
   so a point read allocates a few words and a large frame does not
   regrow them.
   The decoder checks the whole frame before it allocates anything from
   a count it read, then interns each dictionary entry once, so every
   row shares those values. *)

let kind_int = 0
let kind_str = 1
let kind_bool = 2
let kind_float = 3

let kind_code : Value.ty -> int = function
  | TInt -> kind_int
  | TStr -> kind_str
  | TBool -> kind_bool
  | TFloat -> kind_float

(* The fewest bytes a cell of a kind takes *)
let cell_bytes kind = if kind = kind_float then 8 else 1

(* The frame's dictionary: linear probing over (string, id) slots, id -1
   marking a free one, sized for the frame's string cells (at most 1024
   distinct to start with) and doubled at half load.  [entries] holds
   the strings length-prefixed in id order, as the frame carries them. *)
type dict = {
  mutable keys : string array;
  mutable ids : int array;
  mutable size : int;
  entries : sink;
}

let dict_create ~cells =
  let rec pow2 n = if n >= 2 * min cells 1024 then n else pow2 (2 * n) in
  let slots = pow2 8 in
  { keys = Array.make slots ""; ids = Array.make slots (-1); size = 0; entries = sink 32 }

let rec free_slot ids mask i =
  if Array.unsafe_get ids i < 0 then i else free_slot ids mask ((i + 1) land mask)

let grow d =
  let keys = d.keys and ids = d.ids in
  let slots = 2 * Array.length ids in
  let mask = slots - 1 in
  d.keys <- Array.make slots "";
  d.ids <- Array.make slots (-1);
  Array.iteri
    (fun i id ->
      if id >= 0 then begin
        let k = keys.(i) in
        let j = free_slot d.ids mask (Hashtbl.hash k land mask) in
        d.keys.(j) <- k;
        d.ids.(j) <- id
      end)
    ids

let rec probe d s mask i =
  let id = Array.unsafe_get d.ids i in
  if id < 0 then begin
    let id = d.size in
    d.keys.(i) <- s;
    d.ids.(i) <- id;
    d.size <- id + 1;
    put_string d.entries s;
    if 2 * d.size > Array.length d.ids then grow d;
    id
  end
  else
    let k = Array.unsafe_get d.keys i in
    if k == s || String.equal k s then id else probe d s mask ((i + 1) land mask)

let dict_id d s =
  let mask = Array.length d.ids - 1 in
  probe d s mask (Hashtbl.hash s land mask)

(* No string of a frame is physically this one *)
let no_string = String.make 1 '\000'

(* A column being encoded: its kind, its cells, and its last string and
   that string's id *)
type column = {
  kind : int;
  cells : sink;
  mutable prev : string;
  mutable prev_id : int;
}

(* The one Rows encoder: one walk of the [count] rows ([iter]), each
   cell appended to its column's sink, sized for one byte a cell (a
   Float's eight).  A row that does not fit [kinds] is
   [Invalid_argument]. *)
let rows_parts ~version ~columns ~kinds ~count iter =
  let ncols = List.length columns in
  let misfit t =
    invalid_arg
      (Fmt.str "Wire.Rows: row %a does not fit the columns (%a)" Tuple.pp t
         Fmt.(array ~sep:comma Value.pp_ty)
         kinds)
  in
  let cols =
    Array.map
      (fun ty ->
        let kind = kind_code ty in
        { kind; cells = sink (8 + (count * cell_bytes kind)); prev = no_string; prev_id = 0 })
      kinds
  in
  let strs =
    Array.fold_left (fun n col -> if col.kind = kind_str then n + 1 else n) 0 cols
  in
  let dict = dict_create ~cells:(count * strs) in
  let rows = ref 0 in
  iter (fun t ->
      incr rows;
      if Tuple.arity t <> ncols || (ncols = 0 && !rows > 1) then misfit t;
      for c = 0 to ncols - 1 do
        let col = Array.unsafe_get cols c in
        match Tuple.get t c with
        | Str s when col.kind = kind_str ->
          if s != col.prev then begin
            col.prev_id <- dict_id dict s;
            col.prev <- s
          end;
          put_varint col.cells col.prev_id
        | Int i when col.kind = kind_int -> put_zigzag col.cells i
        | Bool b when col.kind = kind_bool ->
          put_char col.cells (if b then '\001' else '\000')
        | Float f when col.kind = kind_float ->
          let out = col.cells in
          reserve out 8;
          Bytes.set_int64_le out.bytes out.len (Int64.bits_of_float f);
          out.len <- out.len + 8
        | _ -> misfit t
      done);
  let head = tagged tag_rows in
  put_varint head version;
  put_varint head ncols;
  List.iter (put_string head) columns;
  put_varint head !rows;
  Array.iter (fun col -> put_char head (Char.chr col.kind)) cols;
  put_varint head dict.size;
  head :: dict.entries :: Array.fold_right (fun col l -> col.cells :: l) cols []

(* The kinds of a row list are its first row's; with no row, any kind
   does. *)
let list_kinds ncols = function
  | t :: _ ->
    Array.init ncols (fun i ->
        if i < Tuple.arity t then Value.type_of (Tuple.get t i) else Value.TInt)
  | [] -> Array.make ncols Value.TInt

let rows_of_list ~version ~columns tuples =
  rows_parts ~version ~columns
    ~kinds:(list_kinds (List.length columns) tuples)
    ~count:(List.length tuples)
    (fun f -> List.iter f tuples)

let frame_rows ~version rel =
  let schema = Relation.schema rel in
  framed
    (rows_parts ~version ~columns:(Schema.attr_names schema)
       ~kinds:(Schema.attr_types_array schema)
       ~count:(Relation.cardinal rel)
       (fun f -> Relation.iter f rel))

(* Decoding a Rows body.  Pass 1 walks the frame and checks every claim
   against the bytes that follow it — the counts, each dictionary entry,
   each cell (an id in range, a bool 0 or 1, a varint that ends) and the
   end of the payload — allocating only per column.  Pass 2 interns the
   dictionary and builds the rows from one cursor per column. *)

let corrupt fmt = Fmt.kstr (fun s -> raise (Codec.Corrupt s)) fmt
let remaining (c : Codec.cursor) = c.limit - c.pos

(* A count no larger than [bound]; a varint of 63 bits reads negative *)
let read_count c what ~bound =
  let n = Codec.read_varint c in
  if n < 0 || n > bound then corrupt "%s %d runs past input" what n;
  n

let skip_column c ~dict_size ~count kind =
  if kind = kind_float then begin
    if count > remaining c / 8 then corrupt "float column runs past input";
    c.pos <- c.pos + (8 * count)
  end
  else
    for _ = 1 to count do
      if kind = kind_bool then begin
        let b = Codec.read_byte c in
        if b > 1 then corrupt "bool cell %d" b
      end
      else
        let n = Codec.read_varint c in
        if kind = kind_str && (n < 0 || n >= dict_size) then
          corrupt "dictionary id %d of %d entries" n dict_size
    done

(* Cursors that pass 1 has checked: one position per column *)
let rec varint_at data pos col shift acc =
  let i = pos.(col) in
  let b = Char.code data.[i] in
  pos.(col) <- i + 1;
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b < 0x80 then acc else varint_at data pos col (shift + 7) acc

let v_true = Value.Bool true
let v_false = Value.Bool false

let read_rows (c : Codec.cursor) =
  let version = Codec.read_varint c in
  let ncols = read_count c "column count" ~bound:(remaining c) in
  let columns = List.init ncols (fun _ -> Codec.read_string c) in
  let count = read_count c "row count" ~bound:max_int in
  let kinds =
    Array.init ncols (fun _ ->
        let k = Codec.read_byte c in
        if k > kind_float then corrupt "unknown column kind %d" k;
        k)
  in
  let row_bytes = Array.fold_left (fun n k -> n + cell_bytes k) 0 kinds in
  if ncols = 0 && count > 1 then corrupt "%d rows of arity 0" count;
  if ncols > 0 && count > remaining c / row_bytes then
    corrupt "row count %d runs past input" count;
  let dict_size = read_count c "dictionary of" ~bound:(remaining c) in
  let dict_at = c.pos in
  for _ = 1 to dict_size do
    let len = read_count c "dictionary entry of" ~bound:(remaining c) in
    c.pos <- c.pos + len
  done;
  let starts =
    Array.map
      (fun kind ->
        let start = c.pos in
        skip_column c ~dict_size ~count kind;
        start)
      kinds
  in
  if not (Codec.at_end c) then corrupt "trailing bytes after message body";
  c.pos <- dict_at;
  let dict = Array.init dict_size (fun _ -> Value.str (Codec.read_string c)) in
  let data = c.data and pos = starts in
  let cell col =
    let kind = Array.unsafe_get kinds col in
    if kind = kind_str then dict.(varint_at data pos col 0 0)
    else if kind = kind_int then
      let n = varint_at data pos col 0 0 in
      Value.Int ((n lsr 1) lxor -(n land 1))
    else if kind = kind_bool then begin
      let i = pos.(col) in
      pos.(col) <- i + 1;
      if data.[i] = '\001' then v_true else v_false
    end
    else begin
      let i = pos.(col) in
      pos.(col) <- i + 8;
      Value.Float (Int64.float_of_bits (String.get_int64_le data i))
    end
  in
  (* the small arities build their cell arrays inline; each column has
     its own cursor, so the order cells are read in does not matter *)
  let row =
    match ncols with
    | 1 -> fun _ -> Tuple.make1 (cell 0)
    | 2 -> fun _ -> Tuple.make2 (cell 0) (cell 1)
    | 3 -> fun _ -> Tuple.make3 (cell 0) (cell 1) (cell 2)
    | n -> fun _ -> Tuple.init n cell
  in
  let tuples = List.init count row in
  c.pos <- c.limit;
  Rows { version; columns; tuples }

let build_request = function
  | Stmt src -> with_tag tag_stmt (fun b -> put_string b src)
  | Query src -> with_tag tag_query (fun b -> put_string b src)
  | Snapshot -> with_tag tag_snapshot ignore
  | Metrics fmt ->
    with_tag tag_metrics (fun b ->
        put_varint b (match fmt with `Text -> 0 | `Json -> 1))
  | Bye -> with_tag tag_bye ignore

let build_response = function
  | Output s -> with_tag tag_output (fun b -> put_string b s)
  | Rows { version; columns; tuples } -> rows_of_list ~version ~columns tuples
  | Snap { version; durable_lsn; relations; views; summary } ->
    with_tag tag_snap (fun b ->
        put_varint b version;
        put_zigzag b (match durable_lsn with Some l -> l | None -> -1);
        put_varint b relations;
        put_varint b views;
        put_string b summary)
  | Metrics_body s -> with_tag tag_metrics_body (fun b -> put_string b s)
  | Bye_ok -> with_tag tag_bye_ok ignore
  | Err { code; message } ->
    with_tag tag_err (fun b ->
        put_varint b (error_code_to_int code);
        put_string b message)

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
  else if tag = tag_rows then read_rows c
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
