(* The wire protocol (lib/net), fuzzed and attacked.

   Pure layer: qcheck round-trips of every frame type over arbitrary
   payload bytes, and a decoder fuzz — arbitrary byte strings, and cut
   or damaged Rows frames, must either decode or raise [Codec.Corrupt],
   never anything else.  Rows frames are also written out by hand: the
   layout, hostile counts and ids, and the encoder's refusal of rows
   that do not fit their columns.  Framed
   transport: every strict prefix of a valid frame is a torn frame, and
   every single-byte corruption of one must be rejected by the CRC.

   Live layer: a real TCP listener over a served database.  The client
   round-trips statements, queries, snapshot info, metrics, and the
   error taxonomy; adversarial peers (garbage preamble, oversized
   length claim, truncated frame, CRC corruption, mid-frame stall,
   random byte blobs) must each earn a structured [Err]/disconnect
   while the server keeps serving well-formed clients — in particular a
   stalled hostile connection must not delay the writer thread. *)

open Dc_relation
module Codec = Dc_wal.Codec
module Wire = Dc_net.Wire
module Net = Dc_net.Net
module Database = Dc_core.Database
module Server = Dc_server.Server
module Guard = Dc_guard.Guard

let contains_s s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

(* ------------------------------------------------------------------ *)
(* Generators *)

(* A cell of a kind.  Strings come from a small pool half the time, so
   frames repeat strings (the dictionary's case), and are fresh copies,
   not interned, so the decoder's interning is what shares them. *)
let value_gen : Value.ty -> Value.t QCheck.Gen.t =
  QCheck.Gen.(
    function
    | Value.TInt -> map (fun i -> Value.Int i) (oneof [ small_signed_int; int ])
    | TStr ->
      map
        (fun s -> Value.Str (String.init (String.length s) (String.get s)))
        (oneof [ oneofl [ "n0"; "n1"; "" ]; string_size (int_bound 12) ])
    | TBool -> map (fun b -> Value.Bool b) bool
    (* finite floats only: NaN breaks structural equality, which is a
       property of equality, not of the codec *)
    | TFloat -> map (fun f -> Value.Float f) (float_bound_inclusive 1e9))

(* A schema first, then rows that fit it: what a relation can produce.
   Arity 0 has at most one row (the empty tuple). *)
let rows_gen =
  QCheck.Gen.(
    list_size (int_bound 4)
      (pair (string_size (int_bound 8))
         (oneofl Value.[ TInt; TStr; TBool; TFloat ]))
    >>= fun schema ->
    let columns = List.map fst schema and kinds = List.map snd schema in
    let row = map Tuple.of_list (flatten_l (List.map value_gen kinds)) in
    map2
      (fun version tuples -> Wire.Rows { version; columns; tuples })
      small_nat
      (list_size (if schema = [] then int_bound 1 else int_bound 8) row))

let bytes_gen = QCheck.Gen.(string_size ~gen:char (int_bound 200))

let request_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Wire.Stmt s) bytes_gen;
        map (fun s -> Wire.Query s) bytes_gen;
        return Wire.Snapshot;
        map (fun b -> Wire.Metrics (if b then `Text else `Json)) bool;
        return Wire.Bye;
      ])

let error_code_gen =
  QCheck.Gen.oneofl
    [
      Wire.Parse; Wire.Type; Wire.Semantic; Wire.Limit; Wire.Server;
      Wire.Protocol; Wire.Internal;
    ]

let response_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Wire.Output s) bytes_gen;
        rows_gen;
        map3
          (fun version lsn (relations, views, summary) ->
            Wire.Snap
              {
                version;
                durable_lsn = (if lsn = 0 then None else Some lsn);
                relations;
                views;
                summary;
              })
          small_nat small_nat
          (triple small_nat small_nat bytes_gen);
        map (fun s -> Wire.Metrics_body s) bytes_gen;
        return Wire.Bye_ok;
        map2
          (fun code message -> Wire.Err { code; message })
          error_code_gen bytes_gen;
      ])

let request_arb =
  QCheck.make ~print:(Fmt.str "%a" Wire.pp_request) request_gen

let response_arb =
  QCheck.make ~print:(Fmt.str "%a" Wire.pp_response) response_gen

(* ------------------------------------------------------------------ *)
(* Pure codec properties *)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request round-trips (payload and frame)" ~count:500
    request_arb (fun req ->
      let payload = Wire.encode_request req in
      let framed = Codec.frame_string payload in
      let payload', next = Codec.read_frame framed 0 in
      next = String.length framed
      && String.equal framed (Wire.frame_request req)
      && Wire.equal_request req (Wire.decode_request payload'))

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response round-trips (payload and frame)" ~count:500
    response_arb (fun resp ->
      let payload = Wire.encode_response resp in
      let framed = Codec.frame_string payload in
      let payload', next = Codec.read_frame framed 0 in
      next = String.length framed
      && String.equal framed (Wire.frame_response resp)
      && Wire.equal_response resp (Wire.decode_response payload'))

(* arbitrary bytes must decode or raise [Codec.Corrupt] — any other
   exception (or a crash) fails the property *)
let prop_decoder_total =
  QCheck.Test.make ~name:"decoders are total over arbitrary bytes" ~count:1000
    (QCheck.make QCheck.Gen.(string_size ~gen:char (int_bound 300)))
    (fun blob ->
      let probe f = match f blob with _ -> true | exception Codec.Corrupt _ -> true in
      let probe_frame () =
        match Codec.read_frame blob 0 with
        | _ -> true
        | exception Codec.Corrupt _ -> true
      in
      probe Wire.decode_request && probe Wire.decode_response && probe_frame ())

(* a Rows payload cut short or with one byte changed decodes or raises
   [Codec.Corrupt] — arbitrary bytes rarely get past the tag *)
let prop_rows_mutations =
  QCheck.Test.make ~name:"Rows decoder is total over damaged frames" ~count:500
    QCheck.(
      triple
        (make ~print:(Fmt.str "%a" Wire.pp_response) rows_gen)
        small_nat (int_bound 255))
    (fun (rows, at, byte) ->
      let payload = Wire.encode_response rows in
      let probe p =
        match Wire.decode_response p with
        | _ -> true
        | exception Codec.Corrupt _ -> true
      in
      let at = at mod String.length payload in
      let changed = Bytes.of_string payload in
      Bytes.set changed at (Char.chr byte);
      probe (String.sub payload 0 at) && probe (Bytes.to_string changed))

(* A run (ranks over one dictionary shared by every column, with values
   no row uses, as the closure operator builds its answer) frames to the
   bytes of the same rows held as a tree: the run's frame dictionary,
   taken from its ranks, lists the same strings in the same first-seen
   order. *)
let prop_run_frames_as_tree =
  let cell : Value.ty -> Value.t QCheck.Gen.t =
    QCheck.Gen.(
      function
      | Value.TStr -> map (fun k -> Value.Str (Fmt.str "s%d" k)) (int_bound 5)
      | TBool -> map (fun b -> Value.Bool b) bool
      | TFloat -> map (fun k -> Value.Float (float_of_int k /. 2.)) (int_range (-5) 5)
      | TInt -> map (fun k -> Value.Int k) (int_range (-5) 5))
  in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 3) (oneofl Value.[ TInt; TStr; TBool; TFloat ])
      >>= fun kinds ->
      triple (return kinds)
        (list_size (int_bound 12) (map Tuple.of_list (flatten_l (List.map cell kinds))))
        (list_size (int_bound 3) (oneofl Value.[ TInt; TStr ] >>= cell)))
  in
  QCheck.Test.make ~name:"a run frames as its tree" ~count:300
    (QCheck.make
       ~print:(fun (kinds, rows, unused) ->
         Fmt.str "%a: %a (unused %a)"
           Fmt.(list ~sep:comma Value.pp_ty)
           kinds
           Fmt.(list ~sep:semi Tuple.pp)
           rows
           Fmt.(list ~sep:comma Value.pp)
           unused)
       gen)
    (fun (kinds, rows, unused) ->
      let schema = Schema.make (List.mapi (fun k ty -> (Fmt.str "c%d" k, ty)) kinds) in
      let tree = Relation.of_list schema rows in
      let sorted = Array.of_list (Relation.to_list tree) in
      let nodes =
        Array.of_list
          (List.sort_uniq Value.compare
             (unused @ List.concat_map Tuple.to_list (Array.to_list sorted)))
      in
      let rank v =
        let rec find i = if Value.equal nodes.(i) v then i else find (i + 1) in
        find 0
      in
      let run =
        Relation.of_ranks_unchecked schema nodes
          (Array.init (List.length kinds) (fun c ->
               Array.map (fun t -> rank (Tuple.get t c)) sorted))
      in
      String.equal (Wire.frame_rows ~version:3 tree) (Wire.frame_rows ~version:3 run))

(* A Rows payload written out by hand: the tag, then version, columns,
   row count, kinds, dictionary and the columns in turn *)
let rows_payload ?(version = 7) ?(columns = [ "a"; "b" ]) ?count_bytes ~count
    ~kinds ?dict_count ~dict cells =
  let b = Buffer.create 64 in
  Buffer.add_char b '\x82';
  Codec.varint b version;
  Codec.varint b (List.length columns);
  List.iter (Codec.string_ b) columns;
  (match count_bytes with
  | Some raw -> Buffer.add_string b raw
  | None -> Codec.varint b count);
  List.iter (fun k -> Buffer.add_char b (Char.chr k)) kinds;
  Codec.varint b (Option.value dict_count ~default:(List.length dict));
  List.iter (Codec.string_ b) dict;
  Buffer.add_string b cells;
  Buffer.contents b

let str_pair a b = Tuple.make2 (Value.Str a) (Value.Str b)

let test_rows_layout () =
  let rows =
    Wire.Rows
      {
        version = 7;
        columns = [ "a"; "b" ];
        tuples = [ str_pair "x" "y"; str_pair "x" "z"; str_pair "y" "x" ];
      }
  in
  (* ids in first-seen order, row by row: x 0, y 1, z 2; column a is
     0 0 1, column b 1 2 0 *)
  Alcotest.(check string) "column-major, one dictionary"
    (rows_payload ~count:3 ~kinds:[ 1; 1 ] ~dict:[ "x"; "y"; "z" ]
       "\000\000\001\001\002\000")
    (Wire.encode_response rows);
  let mixed =
    Wire.Rows
      {
        version = 1;
        columns = [ "i"; "b"; "f" ];
        tuples =
          [
            Tuple.make3 (Value.Int (-1)) (Value.Bool true) (Value.Float 1.5);
            Tuple.make3 (Value.Int 64) (Value.Bool false) (Value.Float 0.);
          ];
      }
  in
  let floats = Buffer.create 16 in
  Buffer.add_int64_le floats (Int64.bits_of_float 1.5);
  Buffer.add_int64_le floats (Int64.bits_of_float 0.);
  Alcotest.(check string) "zigzag ints, bool bytes, float bits"
    (rows_payload ~version:1 ~columns:[ "i"; "b"; "f" ] ~count:2
       ~kinds:[ 0; 2; 3 ] ~dict:[]
       ("\001\128\001" ^ "\001\000" ^ Buffer.contents floats))
    (Wire.encode_response mixed);
  Alcotest.(check bool) "round-trips" true
    (Wire.equal_response mixed
       (Wire.decode_response (Wire.encode_response mixed)))

let test_rows_nonconforming () =
  let refuse name columns tuples =
    match Wire.encode_response (Wire.Rows { version = 1; columns; tuples }) with
    | _ -> Alcotest.failf "%s: encoded" name
    | exception Invalid_argument _ -> ()
  in
  refuse "short row" [ "a"; "b" ] [ str_pair "x" "y"; Tuple.make1 (Value.Str "x") ];
  refuse "long row" [ "a" ] [ str_pair "x" "y" ];
  refuse "two kinds in a column" [ "a"; "b" ]
    [ str_pair "x" "y"; Tuple.make2 (Value.Str "x") (Value.Int 1) ];
  refuse "two rows of arity 0" [] [ Tuple.of_list []; Tuple.of_list [] ];
  refuse "a row without columns" [] [ Tuple.make1 (Value.Int 1) ]

(* Each hostile Rows body raises [Codec.Corrupt] — nothing else — having
   interned no string and allocated nothing from the count it claims *)
let test_rows_hostile () =
  let fresh = Fmt.str "hostile-%d" (Unix.getpid ()) in
  let huge = 1_000_000 in
  let negative =
    (* nine varint bytes: 63 bits, a negative OCaml int *)
    "\255\255\255\255\255\255\255\255\127"
  in
  let cases =
    [
      ( "truncated dictionary",
        rows_payload ~count:1 ~kinds:[ 1; 1 ] ~dict_count:3
          ~dict:[ fresh ^ "a"; fresh ^ "b" ] "" );
      ( "dictionary count past the bytes",
        rows_payload ~count:1 ~kinds:[ 1; 1 ] ~dict_count:huge ~dict:[ fresh ]
          "\000\000" );
      ( "row count past the bytes",
        rows_payload ~count:huge ~kinds:[ 1; 1 ] ~dict:[ fresh ] "\000\000" );
      ( "row count past the bytes (floats)",
        rows_payload ~count:3 ~columns:[ "f" ] ~kinds:[ 3 ] ~dict:[]
          (String.make 16 '\000') );
      ( "two rows of arity 0",
        rows_payload ~count:2 ~columns:[] ~kinds:[] ~dict:[] "" );
      ( "dictionary id out of range",
        rows_payload ~count:1 ~kinds:[ 1; 1 ] ~dict:[ fresh ] "\000\001" );
      ( "unknown kind byte",
        rows_payload ~count:1 ~kinds:[ 1; 9 ] ~dict:[ fresh ] "\000\000" );
      ( "bool byte other than 0 or 1",
        rows_payload ~count:1 ~columns:[ "b" ] ~kinds:[ 2 ] ~dict:[] "\002" );
      ( "unterminated varint cell",
        rows_payload ~count:1 ~columns:[ "i" ] ~kinds:[ 0 ] ~dict:[] "\128" );
      ( "negative row count",
        rows_payload ~count_bytes:negative ~count:0 ~kinds:[ 1; 1 ] ~dict:[]
          "" );
      ( "negative dictionary id",
        rows_payload ~count:1 ~columns:[ "s" ] ~kinds:[ 1 ] ~dict:[ fresh ]
          negative );
      ( "trailing bytes",
        rows_payload ~count:1 ~kinds:[ 1; 1 ] ~dict:[ fresh ] "\000\000\000" );
    ]
  in
  List.iter
    (fun (name, payload) ->
      let interned = Value.interned_count () in
      (* the counters of direct major allocations are brought up to date
         by a minor collection *)
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      (match Wire.decode_response payload with
      | r -> Alcotest.failf "%s: decoded %a" name Wire.pp_response r
      | exception Codec.Corrupt _ -> ()
      | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e));
      Gc.minor ();
      let words = (Gc.allocated_bytes () -. before) /. 8. in
      Alcotest.(check int) (name ^ ": nothing interned") interned
        (Value.interned_count ());
      Alcotest.(check bool)
        (Fmt.str "%s: %.0f words allocated" name words)
        true (words < 4096.))
    cases

(* equal strings decode to one interned string, and one value per frame *)
let test_rows_interned () =
  let copy s = String.init (String.length s) (String.get s) in
  let a = Fmt.str "interned-%d" (Unix.getpid ()) in
  let tuples =
    [ str_pair (copy a) (copy a); str_pair (copy "b") (copy a) ]
  in
  match
    Wire.decode_response
      (Wire.encode_response (Wire.Rows { version = 1; columns = [ "x"; "y" ]; tuples }))
  with
  | Wire.Rows { tuples = [ t1; t2 ]; _ } ->
    let cells = [ Tuple.get t1 0; Tuple.get t1 1; Tuple.get t2 1 ] in
    List.iter
      (fun v ->
        Alcotest.(check bool) "one value per distinct string" true
          (v == Tuple.get t1 0);
        match v with
        | Value.Str s ->
          Alcotest.(check bool) "interned" true
            (match Value.str a with Value.Str c -> c == s | _ -> false)
        | _ -> Alcotest.fail "not a string")
      cells
  | r -> Alcotest.failf "unexpected %a" Wire.pp_response r

let test_torn_frames () =
  let framed =
    Codec.frame_string (Wire.encode_request (Wire.Stmt "INSERT Edge;"))
  in
  for len = 0 to String.length framed - 1 do
    match Codec.read_frame (String.sub framed 0 len) 0 with
    | _ -> Alcotest.failf "accepted a torn frame of %d/%d bytes" len
              (String.length framed)
    | exception Codec.Corrupt _ -> ()
  done

let test_bitflips_rejected () =
  let framed = Codec.frame_string (Wire.encode_response (Wire.Output "ok")) in
  for i = 0 to String.length framed - 1 do
    let b = Bytes.of_string framed in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x41));
    match Codec.read_frame (Bytes.to_string b) 0 with
    | payload, _ ->
      (* the only way a flip survives framing is inside the length word
         making the frame short — decode must then reject the payload *)
      (match Wire.decode_response payload with
      | _ -> Alcotest.failf "byte flip at %d went unnoticed" i
      | exception Codec.Corrupt _ -> ())
    | exception Codec.Corrupt _ -> ()
  done

let test_preamble () =
  let pre = Wire.encode_preamble ~max_frame:Wire.default_max_frame in
  Alcotest.(check int) "length" Wire.preamble_length (String.length pre);
  Alcotest.(check int) "round-trips" Wire.default_max_frame
    (Wire.decode_preamble pre);
  let reject s msg =
    match Wire.decode_preamble s with
    | _ -> Alcotest.failf "accepted %s" msg
    | exception Wire.Protocol_error _ -> ()
  in
  reject "DCNQ\001\000\000\128\000" "bad magic";
  reject "DCNP\003\000\000\128\000" "a later version";
  (match Wire.decode_preamble "DCNP\001\000\000\128\000" with
  | _ -> Alcotest.fail "accepted a version-1 preamble"
  | exception Wire.Protocol_error m ->
    Alcotest.(check bool) ("names both versions: " ^ m) true
      (contains_s m "version 1" && contains_s m "speaks 2"));
  reject (Wire.encode_preamble ~max_frame:16) "max_frame below floor";
  reject "DCNP" "short preamble"

(* ------------------------------------------------------------------ *)
(* Live server fixture *)

let setup_src =
  {|
TYPE node = STRING;
TYPE edgerel = RELATION a, b OF RECORD a, b: node END;
VAR Edge: edgerel;
INSERT Edge VALUES ("a", "b"), ("b", "c");
|}

let with_server ?(io_timeout = 5.) f =
  let db = Database.create () in
  let srv = Server.create db in
  let s = Server.open_session srv in
  ignore (Server.execute s setup_src);
  Server.close_session s;
  let listener = Net.listen ~io_timeout srv (Net.Tcp ("127.0.0.1", 0)) in
  let port = Net.bound_port listener in
  Fun.protect
    ~finally:(fun () ->
      Net.stop listener;
      Server.shutdown srv)
    (fun () -> f srv port)

let connect port = Net.Client.connect (Net.Tcp ("127.0.0.1", port))

(* raw socket for adversarial bytes *)
let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_raw fd s =
  let rec go pos =
    if pos < String.length s then
      go (pos + Unix.write_substring fd s pos (String.length s - pos))
  in
  try go 0 with Unix.Unix_error _ -> ()

(* drain until the peer closes (or 10s cap); returns everything read *)
let recv_until_close fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining > 0. then
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> ()
      | _ -> (
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        | exception Unix.Unix_error _ -> ())
  in
  go ();
  Buffer.contents buf

let client_preamble = Wire.encode_preamble ~max_frame:Wire.default_max_frame

(* parse the server's reply stream after our preamble: its preamble,
   then any [Err] frame it managed to send *)
let decode_reply_stream data =
  if String.length data < Wire.preamble_length then None
  else begin
    ignore (Wire.decode_preamble (String.sub data 0 Wire.preamble_length));
    match Codec.read_frame data Wire.preamble_length with
    | payload, _ -> Some (Wire.decode_response payload)
    | exception Codec.Corrupt _ -> None
  end

(* ------------------------------------------------------------------ *)
(* Well-formed client over the live server *)

let test_client_roundtrip () =
  with_server @@ fun _srv port ->
  let c = connect port in
  let out = Net.Client.exec c "QUERY Edge;" in
  Alcotest.(check bool) "query output rendered" true (contains_s out "2 tuples");
  ignore (Net.Client.exec c {|INSERT Edge VALUES ("c", "d");|});
  let v1, cols, tuples = Net.Client.query c "QUERY Edge;" in
  Alcotest.(check (list string)) "columns" [ "a"; "b" ] cols;
  Alcotest.(check int) "rows" 3 (List.length tuples);
  let version, _lsn, relations, views, summary = Net.Client.snapshot c in
  Alcotest.(check int) "snapshot version matches query" v1 version;
  Alcotest.(check int) "one relation" 1 relations;
  Alcotest.(check int) "no views" 0 views;
  Alcotest.(check bool) "summary rendered" true (contains_s summary "version");
  (* reads scale through a second concurrent client *)
  let c2 = connect port in
  let v2, _, tuples2 = Net.Client.query c2 "QUERY Edge;" in
  Alcotest.(check int) "same version from second client" v1 v2;
  Alcotest.(check int) "same rows" 3 (List.length tuples2);
  Net.Client.close c2;
  Net.Client.close c

(* An aggregated constructor read over the wire: remote reads evaluate
   on a snapshot, and must give the writer's 12 rows. *)
let test_aggregate_over_wire () =
  with_server @@ fun srv port ->
  let s = Server.open_session srv in
  ignore (Server.execute s (Oracle.example_source "shortest_path.dbpl"));
  Server.close_session s;
  let expected =
    Database.query (Server.db srv)
      Dc_calculus.Ast.(Construct (Rel "Road", "shortest", []))
  in
  let c = connect port in
  let _, _, tuples = Net.Client.query c "QUERY Road{shortest};" in
  Net.Client.close c;
  Alcotest.(check int) "12 rows" 12 (List.length tuples);
  Alcotest.(check bool) "the writer's rows" true
    (List.equal Tuple.equal
       (List.sort Tuple.compare (Relation.to_list expected))
       (List.sort Tuple.compare tuples))

(* A served closure runs the closure operator, whose answer is a run of
   rank pairs framed from its ranks: each QUERY, unseeded and seeded
   from either column, must decode to exactly the interpreter's rows in
   the same order, and EXPLAIN must count the operator's rows and
   traversals.  [d] is a sink (no pairs from it), [e] a source only, and
   a, b, c a cycle. *)
let test_served_closure_frames () =
  with_server @@ fun srv port ->
  let s = Server.open_session srv in
  ignore
    (Server.execute s
       {|TYPE node = STRING;
TYPE edgerel = RELATION a, b OF RECORD a, b: node END;
CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <e.a, p.b> OF EACH e IN Rel, EACH p IN Rel{tc()}: e.b = p.a
END tc;
INSERT Edge VALUES ("c", "a"), ("c", "d"), ("e", "a");|});
  Server.close_session s;
  let closure =
    Relation.to_list
      (Database.query (Server.db srv)
         Dc_calculus.Ast.(Construct (Rel "Edge", "tc", [])))
  in
  let cell k t = Value.to_string (Tuple.get t k) in
  let c = connect port in
  List.iter
    (fun (query, expected, counters) ->
      let _, cols, tuples = Net.Client.query c ("QUERY " ^ query ^ ";") in
      Alcotest.(check (list string)) (query ^ ": columns") [ "a"; "b" ] cols;
      Alcotest.(check (list string))
        (query ^ ": the interpreter's rows, in order")
        (List.map Tuple.to_string expected)
        (List.map Tuple.to_string tuples);
      let explain = Net.Client.exec c ("EXPLAIN " ^ query ^ ";") in
      Alcotest.(check bool)
        (Fmt.str "%s: EXPLAIN shows %s" query counters)
        true (contains_s explain counters))
    [
      ("Edge{tc()}", closure, {|closure tc over Rel (every source) [rows=16 probes=5]|});
      ( {|{EACH p IN Edge{tc()}: p.a = "c"}|},
        List.filter (fun t -> cell 0 t = {|"c"|}) closure,
        {|closure tc over Rel (from "c") [rows=4 probes=1]|} );
      ( {|{EACH p IN Edge{tc()}: p.b = "a"}|},
        List.filter (fun t -> cell 1 t = {|"a"|}) closure,
        {|closure tc over Rel (to "a") [rows=4 probes=1]|} );
      ( {|{EACH p IN Edge{tc()}: p.a = "d"}|},
        [],
        {|closure tc over Rel (from "d") [rows=0 probes=1]|} );
    ];
  Alcotest.(check int) "16 pairs" 16 (List.length closure);
  Net.Client.close c

let test_error_taxonomy () =
  with_server @@ fun _srv port ->
  let c = connect port in
  let expect code src =
    match Net.Client.exec c src with
    | _ -> Alcotest.failf "no error for %s" src
    | exception Net.Client.Remote (got, _) ->
      Alcotest.(check int)
        (Fmt.str "code for %s" src)
        (Wire.error_code_to_int code)
        (Wire.error_code_to_int got)
  in
  expect Wire.Parse "INSERT;";
  expect Wire.Type "QUERY NoSuchRel;";
  expect Wire.Semantic "COMMIT;";
  (* the session survives every failed statement *)
  let v, _, _ = Net.Client.query c "QUERY Edge;" in
  Alcotest.(check bool) "session still serves" true (v > 0);
  (match Net.Client.query c "QUERY Edge; QUERY Edge;" with
  | _ -> Alcotest.fail "multi-statement Query accepted"
  | exception Net.Client.Remote (Wire.Server, _) -> ()
  | exception Net.Client.Remote (code, m) ->
    Alcotest.failf "unexpected code %a: %s" Wire.pp_error_code code m);
  Net.Client.close c

(* Errors a QUERY raises while it evaluates are typed: a constructed
   value breaking its declared key comes back as [Semantic] on the Query
   and the Stmt path, and so does every evaluation-time exception the
   taxonomy names — none is [Internal]. *)
let test_query_errors_typed () =
  with_server @@ fun _srv port ->
  let c = connect port in
  ignore
    (Net.Client.exec c
       {|TYPE keyed = RELATION a OF RECORD a, b: STRING END;
TYPE edges = RELATION a, b OF RECORD a, b: STRING END;
CONSTRUCTOR firsts FOR Rel: edges (): keyed;
BEGIN <"k", e.b> OF EACH e IN Rel: TRUE
END firsts;|});
  let src = "QUERY Edge{firsts()};" in
  let expect_semantic name f =
    match f () with
    | _ -> Alcotest.failf "%s: key violation not raised" name
    | exception Net.Client.Remote (code, msg) ->
      Alcotest.(check string) (name ^ ": code " ^ msg) "semantic"
        (Fmt.str "%a" Wire.pp_error_code code)
  in
  expect_semantic "query" (fun () -> ignore (Net.Client.query c src));
  expect_semantic "statement" (fun () -> ignore (Net.Client.exec c src));
  Net.Client.close c;
  let runtime =
    match Dc_calculus.Eval.(eval_range (make_env []) (Dc_calculus.Ast.Rel "Nope")) with
    | _ -> Alcotest.fail "unknown relation evaluated"
    | exception e -> e
  in
  let aggregate =
    match Dc_agg.Agg.inadmissible "c" "partial" with
    | () -> Alcotest.fail "no aggregate error"
    | exception e -> e
  in
  List.iter
    (fun e ->
      Alcotest.(check string)
        (Printexc.to_string e) "semantic"
        (Fmt.str "%a" Wire.pp_error_code (fst (Net.classify_exn e))))
    [
      runtime;
      Relation.Key_violation "key";
      aggregate;
      Dc_datalog.Stratify.Not_stratifiable "cycle";
    ]

(* An integer literal past max_int is a typed lexer error on both the
   Query and the Stmt path, and the session keeps serving. *)
let test_huge_integer_literal () =
  with_server @@ fun _srv port ->
  let c = connect port in
  let src = "QUERY {EACH e IN Edge: e.a = 99999999999999999999999};" in
  let expect_parse name f =
    match f () with
    | _ -> Alcotest.failf "%s: huge literal accepted" name
    | exception Net.Client.Remote (code, msg) ->
      Alcotest.(check int) (name ^ ": parse error code")
        (Wire.error_code_to_int Wire.Parse) (Wire.error_code_to_int code);
      Alcotest.(check bool) (name ^ ": message") true
        (contains_s msg "integer literal out of range")
  in
  expect_parse "query" (fun () -> ignore (Net.Client.query c src));
  expect_parse "statement" (fun () -> ignore (Net.Client.exec c src));
  let _, _, tuples = Net.Client.query c "QUERY Edge;" in
  Alcotest.(check int) "session still serves" 2 (List.length tuples);
  Net.Client.close c

(* dc_server_stmt_cache_total in a Prometheus body *)
let cache_count text result =
  let prefix = Fmt.str {|dc_server_stmt_cache_total{result="%s"} |} result in
  List.fold_left
    (fun n line ->
      if String.starts_with ~prefix line then
        int_of_string
          (String.sub line (String.length prefix)
             (String.length line - String.length prefix))
      else n)
    0
    (String.split_on_char '\n' text)

(* A repeated point read counts one miss, then hits — also across a
   write, which leaves the catalog version alone — in the wire Metrics
   body and in SHOW METRICS. *)
let test_stmt_cache_metrics () =
  let was = Dc_obs.Obs.on () in
  Dc_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Dc_obs.Obs.set_enabled was) @@ fun () ->
  with_server @@ fun _srv port ->
  let c = connect port in
  let counts () =
    let text = Net.Client.metrics c `Text in
    (cache_count text "hit", cache_count text "miss")
  in
  let hit0, miss0 = counts () in
  let read k rows =
    let _, _, tuples =
      Net.Client.query c (Fmt.str {|QUERY {EACH e IN Edge: e.a = "%s"};|} k)
    in
    Alcotest.(check int) ("rows for " ^ k) rows (List.length tuples)
  in
  read "a" 1;
  read "b" 1;
  ignore (Net.Client.exec c {|INSERT Edge VALUES ("a", "c");|});
  read "a" 2;
  let hit1, miss1 = counts () in
  Alcotest.(check int) "one miss" 1 (miss1 - miss0);
  Alcotest.(check int) "then hits" 2 (hit1 - hit0);
  let shown = Net.Client.exec c "SHOW METRICS;" in
  Alcotest.(check int) "SHOW METRICS hits" hit1 (cache_count shown "hit");
  Alcotest.(check int) "SHOW METRICS misses" miss1 (cache_count shown "miss");
  Net.Client.close c

let test_metrics_over_wire () =
  Dc_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Dc_obs.Obs.set_enabled false)
  @@ fun () ->
  with_server @@ fun _srv port ->
  let c = connect port in
  ignore (Net.Client.query c "QUERY Edge;");
  let text = Net.Client.metrics c `Text in
  Alcotest.(check bool)
    "net instruments present" true
    (contains_s text "dc_net_connections");
  let json = Net.Client.metrics c `Json in
  Alcotest.(check bool) "json body" true (contains_s json "\"metrics\"");
  Net.Client.close c

let test_unix_socket () =
  let dir = Filename.temp_file "dc_net" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "dbpl.sock" in
  let db = Database.create () in
  let srv = Server.create db in
  let s = Server.open_session srv in
  ignore (Server.execute s setup_src);
  Server.close_session s;
  let listener = Net.listen srv (Net.Unix_sock path) in
  Fun.protect
    ~finally:(fun () ->
      Net.stop listener;
      Server.shutdown srv)
    (fun () ->
      let c = Net.Client.connect (Net.Unix_sock path) in
      let _, _, tuples = Net.Client.query c "QUERY Edge;" in
      Alcotest.(check int) "rows over unix socket" 2 (List.length tuples);
      Net.Client.close c);
  Alcotest.(check bool) "socket file unlinked" false (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* Adversarial peers *)

(* after each attack the server must still serve a fresh client *)
let check_still_serving port =
  let c = connect port in
  let _, _, tuples = Net.Client.query c "QUERY Edge;" in
  Alcotest.(check bool) "server still serving" true (List.length tuples >= 2);
  Net.Client.close c

let test_garbage_preamble () =
  with_server ~io_timeout:2. @@ fun _srv port ->
  let fd = raw_connect port in
  send_raw fd "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  let reply = recv_until_close fd in
  Unix.close fd;
  (* the server may answer with a framed protocol error before closing,
     but it must not echo a preamble to a non-peer *)
  Alcotest.(check bool)
    "closed without completing a handshake" true
    (String.length reply = 0
    ||
    match Wire.decode_preamble (String.sub reply 0 Wire.preamble_length) with
    | _ -> false
    | exception _ -> true);
  check_still_serving port

(* A version-1 preamble is refused with a protocol error naming both
   versions: the server answers a v1 client with an [Err] frame in place
   of its preamble, and [Client.connect] refuses a v1 server. *)
let v1_preamble =
  let b = Buffer.create Wire.preamble_length in
  Buffer.add_string b Wire.magic;
  Buffer.add_char b '\001';
  Codec.u32 b Wire.default_max_frame;
  Buffer.contents b

let names_both_versions m =
  contains_s m "version 1" && contains_s m (Fmt.str "speaks %d" Wire.version)

let test_v1_client_refused () =
  with_server ~io_timeout:2. @@ fun _srv port ->
  let fd = raw_connect port in
  send_raw fd v1_preamble;
  let reply = recv_until_close fd in
  Unix.close fd;
  (match Codec.read_frame reply 0 with
  | payload, _ -> (
    match Wire.decode_response payload with
    | Wire.Err { code = Wire.Protocol; message } ->
      Alcotest.(check bool) ("names both versions: " ^ message) true
        (names_both_versions message)
    | r -> Alcotest.failf "unexpected reply %a" Wire.pp_response r)
  | exception Codec.Corrupt m -> Alcotest.failf "no Err frame (%s)" m);
  check_still_serving port

(* A version-1 server either answers with its own preamble or, as the
   version-1 listener does on reading ours, refuses with an [Err] frame
   naming both versions and closes *)
let test_v1_server_refused () =
  let refusal =
    Wire.frame_response
      (Wire.Err
         {
           code = Wire.Protocol;
           message = "preamble: protocol version 2, this peer speaks 1";
         })
  in
  List.iter
    (fun (what, answer, named) ->
      let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt lfd Unix.SO_REUSEADDR true;
      Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen lfd 1;
      let port =
        match Unix.getsockname lfd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      let server =
        Thread.create
          (fun () ->
            let fd, _ = Unix.accept lfd in
            ignore
              (Unix.read fd (Bytes.create Wire.preamble_length) 0
                 Wire.preamble_length);
            send_raw fd answer;
            Unix.close fd)
          ()
      in
      (match Net.Client.connect ~timeout:5. (Net.Tcp ("127.0.0.1", port)) with
      | c ->
        Net.Client.close c;
        Alcotest.failf "%s: connected to a version-1 server" what
      | exception (Wire.Protocol_error m as e) ->
        Alcotest.(check bool) (what ^ ", names both versions: " ^ m) true
          (named m);
        Alcotest.(check int) (what ^ ": a protocol error")
          (Wire.error_code_to_int Wire.Protocol)
          (Wire.error_code_to_int (fst (Net.classify_exn e))));
      Thread.join server;
      Unix.close lfd)
    [
      ("its preamble", v1_preamble, names_both_versions);
      ( "its refusal",
        refusal,
        fun m -> contains_s m "version 2" && contains_s m "speaks 1" );
    ]

let test_oversized_claim () =
  with_server ~io_timeout:2. @@ fun _srv port ->
  let fd = raw_connect port in
  send_raw fd client_preamble;
  (* header claiming a 1 GiB payload: must be rejected from the header
     alone — a structured Err, then disconnect, and no 1 GiB allocation *)
  let buf = Buffer.create 8 in
  Codec.u32 buf (1 lsl 30);
  Codec.u32 buf 0;
  send_raw fd (Buffer.contents buf);
  let reply = recv_until_close fd in
  Unix.close fd;
  (match decode_reply_stream reply with
  | Some (Wire.Err { code = Wire.Protocol; message }) ->
    Alcotest.(check bool) "names max_frame" true (contains_s message "max_frame")
  | Some r -> Alcotest.failf "unexpected reply %a" Wire.pp_response r
  | None -> Alcotest.fail "no structured error before close");
  check_still_serving port

let test_truncated_frame () =
  with_server ~io_timeout:2. @@ fun _srv port ->
  let fd = raw_connect port in
  send_raw fd client_preamble;
  let framed = Codec.frame_string (Wire.encode_request (Wire.Stmt "QUERY Edge;")) in
  send_raw fd (String.sub framed 0 (String.length framed - 3));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let reply = recv_until_close fd in
  Unix.close fd;
  (* the torn frame earns a protocol error (or a silent close) — never a
     successful execution *)
  (match decode_reply_stream reply with
  | Some (Wire.Err { code = Wire.Protocol; _ }) | None -> ()
  | Some r -> Alcotest.failf "unexpected reply %a" Wire.pp_response r);
  check_still_serving port

let test_crc_corruption () =
  with_server ~io_timeout:2. @@ fun _srv port ->
  let fd = raw_connect port in
  send_raw fd client_preamble;
  let framed =
    Bytes.of_string
      (Codec.frame_string (Wire.encode_request (Wire.Stmt "QUERY Edge;")))
  in
  let i = Bytes.length framed - 1 in
  Bytes.set framed i (Char.chr (Char.code (Bytes.get framed i) lxor 0xff));
  send_raw fd (Bytes.to_string framed);
  let reply = recv_until_close fd in
  Unix.close fd;
  (match decode_reply_stream reply with
  | Some (Wire.Err { code = Wire.Protocol; message }) ->
    Alcotest.(check bool) "names the CRC" true (contains_s message "CRC")
  | Some r -> Alcotest.failf "unexpected reply %a" Wire.pp_response r
  | None -> Alcotest.fail "no structured error before close");
  check_still_serving port

(* a hostile peer stalling mid-frame must not delay anyone else — in
   particular not the writer thread *)
let test_stalled_peer_does_not_wedge_writer () =
  with_server ~io_timeout:8. @@ fun _srv port ->
  let fd = raw_connect port in
  send_raw fd client_preamble;
  let framed = Codec.frame_string (Wire.encode_request (Wire.Stmt "QUERY Edge;")) in
  (* half a frame, then silence: the connection thread is now parked in
     its io_timeout window *)
  send_raw fd (String.sub framed 0 6);
  let t0 = Unix.gettimeofday () in
  let c = connect port in
  ignore (Net.Client.exec c {|INSERT Edge VALUES ("w", "x");|});
  let v, _, tuples = Net.Client.query c "QUERY Edge;" in
  let elapsed = Unix.gettimeofday () -. t0 in
  Net.Client.close c;
  Unix.close fd;
  Alcotest.(check bool) "write committed" true (v > 0);
  Alcotest.(check int) "write visible" 3 (List.length tuples);
  Alcotest.(check bool)
    (Fmt.str "writer answered while peer stalled (%.1fs)" elapsed)
    true (elapsed < 5.)

let test_random_blob_fuzz () =
  with_server ~io_timeout:1. @@ fun _srv port ->
  let rng = Dc_workload.Rng.create 0xF00D in
  for _ = 1 to 25 do
    let len = Dc_workload.Rng.int rng 64 in
    let blob =
      String.init len (fun _ -> Char.chr (Dc_workload.Rng.int rng 256))
    in
    let fd = raw_connect port in
    send_raw fd blob;
    (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    ignore (recv_until_close fd);
    Unix.close fd
  done;
  check_still_serving port

let test_idle_timeout_enforced () =
  with_server ~io_timeout:1. @@ fun _srv port ->
  (* a peer that completes the handshake then stalls mid-header is
     disconnected once io_timeout elapses *)
  let fd = raw_connect port in
  send_raw fd client_preamble;
  send_raw fd "\001\002\003";
  let t0 = Unix.gettimeofday () in
  let reply = recv_until_close fd in
  let elapsed = Unix.gettimeofday () -. t0 in
  Unix.close fd;
  ignore reply;
  Alcotest.(check bool)
    (Fmt.str "disconnected after io_timeout (%.1fs)" elapsed)
    true
    (elapsed < 8.);
  check_still_serving port

(* ------------------------------------------------------------------ *)
(* Framing: frames are cut out of a per-connection buffer, so any split
   of the byte stream into writes must read the same *)

(* every response frame after the server's preamble, in order *)
let decode_responses data =
  ignore (Wire.decode_preamble (String.sub data 0 Wire.preamble_length));
  let rec go pos acc =
    if pos >= String.length data then List.rev acc
    else
      let payload, next = Codec.read_frame data pos in
      go next (Wire.decode_response payload :: acc)
  in
  go Wire.preamble_length []

let rows_of = function
  | Wire.Rows { tuples; _ } -> List.length tuples
  | r -> Alcotest.failf "expected rows, got %a" Wire.pp_response r

(* an INSERT of [n] fresh edges: a statement of about 20 bytes per edge *)
let bulk_insert n =
  Fmt.str "INSERT Edge VALUES %s;"
    (String.concat ", "
       (List.init n (fun i -> Fmt.str {|("bulk%d", "x%d")|} i i)))

let test_pipelined_frames () =
  with_server @@ fun _srv port ->
  let big = Wire.frame_request (Wire.Stmt (bulk_insert 1000)) in
  Alcotest.(check bool) "the statement frame is larger than the read buffer"
    true
    (String.length big > Net.read_buffer_size);
  let fd = raw_connect port in
  (* the preamble and the first request in one write *)
  send_raw fd (client_preamble ^ Wire.frame_request (Wire.Query "QUERY Edge;"));
  (* then a frame larger than the buffer, two small ones and Bye in one *)
  send_raw fd
    (String.concat ""
       [
         big;
         Wire.frame_request (Wire.Query {|QUERY {EACH e IN Edge: e.a = "b"};|});
         Wire.frame_request (Wire.Query "QUERY Edge;");
         Wire.frame_request Wire.Bye;
       ]);
  let reply = recv_until_close fd in
  Unix.close fd;
  match decode_responses reply with
  | [ first; Wire.Output _; point; all; Wire.Bye_ok ] ->
    Alcotest.(check int) "first request" 2 (rows_of first);
    Alcotest.(check int) "point read" 1 (rows_of point);
    Alcotest.(check int) "sees the insert" 1002 (rows_of all)
  | rs ->
    Alcotest.failf "unexpected replies: %a"
      Fmt.(list ~sep:comma Wire.pp_response)
      rs

let test_frames_over_buffer () =
  with_server @@ fun _srv port ->
  let c = connect port in
  let stmt = bulk_insert 2000 in
  Alcotest.(check bool) "statement over the read buffer" true
    (String.length stmt > Net.read_buffer_size);
  ignore (Net.Client.exec c stmt);
  let version, columns, tuples = Net.Client.query c "QUERY Edge;" in
  Alcotest.(check int) "every row back" 2002 (List.length tuples);
  let response = Wire.frame_response (Wire.Rows { version; columns; tuples }) in
  Alcotest.(check bool) "Rows response over the read buffer" true
    (String.length response > Net.read_buffer_size);
  (* the connection keeps framing after both direct reads *)
  let _, _, point = Net.Client.query c {|QUERY {EACH e IN Edge: e.a = "a"};|} in
  Alcotest.(check int) "small read after large ones" 1 (List.length point);
  Net.Client.close c

(* io_timeout bounds each read of an in-flight frame, not the frame: a
   peer trickling one byte per 40 ms for longer than io_timeout in all is
   served *)
let test_byte_at_a_time () =
  with_server ~io_timeout:1. @@ fun _srv port ->
  let fd = raw_connect port in
  let bytes = client_preamble ^ Wire.frame_request (Wire.Query "QUERY Edge;") in
  let t0 = Unix.gettimeofday () in
  String.iter
    (fun ch ->
      send_raw fd (String.make 1 ch);
      Unix.sleepf 0.04)
    bytes;
  let elapsed = Unix.gettimeofday () -. t0 in
  send_raw fd (Wire.frame_request Wire.Bye);
  let reply = recv_until_close fd in
  Unix.close fd;
  Alcotest.(check bool)
    (Fmt.str "trickle outlasted io_timeout (%.1fs)" elapsed)
    true (elapsed > 1.);
  match decode_responses reply with
  | [ rows; Wire.Bye_ok ] -> Alcotest.(check int) "answered" 2 (rows_of rows)
  | rs ->
    Alcotest.failf "unexpected replies: %a"
      Fmt.(list ~sep:comma Wire.pp_response)
      rs

(* the gap between requests is exempt from io_timeout *)
let test_idle_gap_stays_connected () =
  with_server ~io_timeout:0.3 @@ fun _srv port ->
  let c = connect port in
  let _, _, before = Net.Client.query c "QUERY Edge;" in
  Unix.sleepf 1.;
  let _, _, after = Net.Client.query c "QUERY Edge;" in
  Alcotest.(check int) "before the gap" 2 (List.length before);
  Alcotest.(check int) "after a gap of three io_timeouts" 2 (List.length after);
  Net.Client.close c

(* a request whose first bytes end the idle wait runs under io_timeout
   from then on: stalling mid-header is cut off, though the idle wait
   itself is unbounded *)
let test_stall_after_idle_wait () =
  with_server ~io_timeout:0.5 @@ fun _srv port ->
  let fd = raw_connect port in
  send_raw fd client_preamble;
  (* let the server finish the handshake and park in its idle wait *)
  Unix.sleepf 0.3;
  send_raw fd "\001\002\003";
  let t0 = Unix.gettimeofday () in
  ignore (recv_until_close fd);
  let elapsed = Unix.gettimeofday () -. t0 in
  Unix.close fd;
  Alcotest.(check bool)
    (Fmt.str "disconnected within io_timeout of the stall (%.1fs)" elapsed)
    true (elapsed < 5.)

(* dc_net_frames_total / dc_net_bytes_total count every pipelined frame,
   and the bytes count each side's preamble: in, the client preamble and
   the request frames; out, the server preamble and the response frames *)
let test_pipelined_frame_counters () =
  let module Obs = Dc_obs.Obs in
  let was = Obs.on () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  with_server @@ fun _srv port ->
  let counter name dir =
    Obs.Counter.value (Obs.Counter.make ~labels:[ ("dir", dir) ] name)
  in
  let read () =
    List.map
      (fun (name, dir) -> counter name dir)
      [
        ("dc_net_frames_total", "in"); ("dc_net_bytes_total", "in");
        ("dc_net_frames_total", "out"); ("dc_net_bytes_total", "out");
      ]
  in
  let before = read () in
  let requests =
    [
      Wire.frame_request (Wire.Query "QUERY Edge;");
      Wire.frame_request (Wire.Query {|QUERY {EACH e IN Edge: e.a = "a"};|});
      Wire.frame_request Wire.Bye;
    ]
  in
  let fd = raw_connect port in
  send_raw fd (client_preamble ^ String.concat "" requests);
  let reply = recv_until_close fd in
  Unix.close fd;
  Alcotest.(check int) "three answers" 3 (List.length (decode_responses reply));
  let delta = List.map2 ( - ) (read ()) before in
  Alcotest.(check (list int))
    "frames in, bytes in, frames out, bytes out"
    [
      3;
      String.length client_preamble + String.length (String.concat "" requests);
      3;
      String.length reply;
    ]
    delta

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dc_net"
    [
      ( "wire codec",
        qcheck
          [
            prop_request_roundtrip; prop_response_roundtrip; prop_decoder_total;
            prop_rows_mutations; prop_run_frames_as_tree;
          ]
        @ [
            Alcotest.test_case "Rows layout" `Quick test_rows_layout;
            Alcotest.test_case "non-conforming Rows refused" `Quick
              test_rows_nonconforming;
            Alcotest.test_case "hostile Rows bodies" `Quick test_rows_hostile;
            Alcotest.test_case "decoded strings are interned" `Quick
              test_rows_interned;
            Alcotest.test_case "torn frames rejected" `Quick test_torn_frames;
            Alcotest.test_case "bit flips rejected" `Quick test_bitflips_rejected;
            Alcotest.test_case "preamble" `Quick test_preamble;
          ] );
      ( "client",
        [
          Alcotest.test_case "round trip" `Quick test_client_roundtrip;
          Alcotest.test_case "aggregated constructor" `Quick
            test_aggregate_over_wire;
          Alcotest.test_case "served closure frames" `Quick
            test_served_closure_frames;
          Alcotest.test_case "error taxonomy" `Quick test_error_taxonomy;
          Alcotest.test_case "query errors are typed" `Quick
            test_query_errors_typed;
          Alcotest.test_case "metrics over the wire" `Quick
            test_metrics_over_wire;
          Alcotest.test_case "huge integer literal" `Quick
            test_huge_integer_literal;
          Alcotest.test_case "statement cache metrics" `Quick
            test_stmt_cache_metrics;
          Alcotest.test_case "unix socket" `Quick test_unix_socket;
        ] );
      ( "framing",
        [
          Alcotest.test_case "pipelined frames" `Quick test_pipelined_frames;
          Alcotest.test_case "frames over the read buffer" `Quick
            test_frames_over_buffer;
          Alcotest.test_case "one byte at a time" `Quick test_byte_at_a_time;
          Alcotest.test_case "idle gap stays connected" `Quick
            test_idle_gap_stays_connected;
          Alcotest.test_case "stall after the idle wait" `Quick
            test_stall_after_idle_wait;
          Alcotest.test_case "pipelined frame counters" `Quick
            test_pipelined_frame_counters;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "garbage preamble" `Quick test_garbage_preamble;
          Alcotest.test_case "version-1 client refused" `Quick
            test_v1_client_refused;
          Alcotest.test_case "version-1 server refused" `Quick
            test_v1_server_refused;
          Alcotest.test_case "oversized length claim" `Quick
            test_oversized_claim;
          Alcotest.test_case "truncated frame" `Quick test_truncated_frame;
          Alcotest.test_case "crc corruption" `Quick test_crc_corruption;
          Alcotest.test_case "stalled peer vs writer" `Quick
            test_stalled_peer_does_not_wedge_writer;
          Alcotest.test_case "random blobs" `Quick test_random_blob_fuzz;
          Alcotest.test_case "mid-frame stall times out" `Quick
            test_idle_timeout_enforced;
        ] );
    ]
