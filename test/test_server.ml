(* Snapshot-isolated serving: the versioned store and the multi-session
   front end (lib/server).

   The centerpiece is a seeded stress test: one writer thread pushes 200
   randomized INSERT/DELETE batches through the server's writer queue
   while N reader sessions issue snapshot queries (base extent and a
   live maintained transitive closure) concurrently — four readers of
   200 queries each, and 64 readers (the default session bound) of 100
   each.  Every read returns the snapshot
   version it observed, and its result must equal, tuple for tuple, the
   sequential replay oracle's precomputed state for exactly that
   version: a read that mixed two versions cannot match any oracle
   entry.  Versions must also be observed monotonically per session.
   Every failure message carries the seed.

   Around it: freeze discipline for the kernel (Facts.freeze), the
   per-version memo of frozen view serves, snapshot immutability and version
   monotonicity, rollback through the single commit point (the
   [ivm.commit] failpoint must leave the published snapshot untouched),
   writer serialization and submit re-entrancy, admission control,
   per-session guard limits, BEGIN/COMMIT pinning through a session, and
   the SHOW SNAPSHOT golden output. *)

open Dc_relation
open Dc_datalog
module Ast = Dc_calculus.Ast
module Database = Dc_core.Database
module Snapshot = Dc_core.Snapshot
module Ivm = Dc_ivm.Ivm
module Guard = Dc_guard.Guard
module Server = Dc_server.Server
module Rng = Dc_workload.Rng
module Par = Dc_par.Par
module Graph_gen = Dc_workload.Graph_gen
module TS = Facts.TS

let ts_of_relation rel = Relation.fold TS.add rel TS.empty
let rel_testable = Alcotest.testable Relation.pp Relation.equal

(* ------------------------------------------------------------------ *)
(* Kernel freeze discipline *)

let pair a b = Tuple.of_list [ Graph_gen.node a; Graph_gen.node b ]

let small_rel =
  Relation.of_list Graph_gen.edge_schema [ pair 1 2; pair 2 3; pair 3 4 ]

let test_facts_freeze () =
  let store = Facts.of_relation "e" small_rel (Facts.empty ()) in
  let f = Facts.freeze store in
  Alcotest.(check bool) "frozen" true (Facts.is_frozen f);
  Alcotest.(check int) "extent carried" 3 (Facts.cardinal f "e");
  (* concurrent lookups on a frozen store are pure: hammer it from
     systhreads and compare against the sequential answer *)
  let expected = Facts.cardinal f "e" in
  let results = Array.make 8 (-1) in
  let threads =
    Array.init 8 (fun i ->
        Thread.create
          (fun () ->
            let n = ref 0 in
            for _ = 1 to 50 do
              n := Facts.cardinal f "e"
            done;
            results.(i) <- !n)
          ())
  in
  Array.iter Thread.join threads;
  Array.iter (fun n -> Alcotest.(check int) "pure reads" expected n) results

(* ------------------------------------------------------------------ *)
(* Frozen view serves: one relation per published version *)

let view_source ~materialize =
  {|
TYPE node = STRING;
TYPE edgerel = RELATION a, b OF RECORD a, b: node END;
VAR Edge: edgerel;
CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <e.a, p.b> OF EACH e IN Rel, EACH p IN Rel{tc()}: e.b = p.a
END tc;
INSERT Edge VALUES ("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n1", "n4"),
                   ("n4", "n5"), ("n5", "n2"), ("n3", "n6");
|}
  ^ if materialize then "MATERIALIZE Edge{tc()};\n" else ""

let str_pair a b = Tuple.of_list [ Value.str a; Value.str b ]

(* Serve [Edge{tc()}] through the snapshot's (only) frozen view. *)
let serve_tc snap =
  match snap.Snapshot.views with
  | [ { Snapshot.fv_serve = Some serve; _ } ] ->
    let def = Snapshot.SM.find "tc" snap.Snapshot.constructors in
    (match serve def (Option.get (Snapshot.get snap "Edge")) [] with
    | Some rel -> rel
    | None -> Alcotest.fail "the frozen view declined its own application")
  | _ -> Alcotest.fail "expected one live frozen view"

let test_serve_memo_per_version () =
  let db, _ = Dc_lang.Elaborate.run_string (view_source ~materialize:true) in
  let s1 = Database.snapshot db in
  let first = serve_tc s1 in
  Alcotest.(check bool) "second serve shares the first" true
    (serve_tc s1 == first);
  Database.insert db "Edge" (str_pair "n6" "n7");
  let s2 = Database.snapshot db in
  let next = serve_tc s2 in
  Alcotest.(check bool) "the next version serves a new relation" false
    (next == first);
  Alcotest.(check int) "new extent carries the write"
    (Relation.cardinal first + 7)
    (Relation.cardinal next)

let point_read = {|QUERY {EACH p IN Edge{tc()}: p.a = "n1"};|}

let read_through db =
  let srv = Server.create db in
  let s = Server.open_session srv in
  let rel, _ = Server.query_string s point_read in
  Server.close_session s;
  Server.shutdown srv;
  rel

let test_view_point_read () =
  let viewed, _ = Dc_lang.Elaborate.run_string (view_source ~materialize:true) in
  let plain, _ = Dc_lang.Elaborate.run_string (view_source ~materialize:false) in
  Alcotest.(check (list string)) "a view is live" [ "tc__Edge" ]
    (Snapshot.view_names (Database.snapshot viewed));
  let expected = read_through plain in
  Alcotest.(check int) "n1 reaches five nodes" 5 (Relation.cardinal expected);
  Alcotest.check rel_testable "served read = evaluated read" expected
    (read_through viewed)

(* Four pool domains race to fill the memo of one fresh snapshot. *)
let test_serve_memo_concurrent () =
  let db, _ = Dc_lang.Elaborate.run_string (view_source ~materialize:true) in
  let plain, _ = Dc_lang.Elaborate.run_string (view_source ~materialize:false) in
  let expected = read_through plain in
  Database.insert db "Edge" (str_pair "n6" "n7");
  let snap = Database.snapshot db in
  let range =
    Ast.Comp
      [
        {
          Ast.binders = [ ("p", Ast.Construct (Ast.Rel "Edge", "tc", [])) ];
          target = [];
          where = Ast.Cmp (Ast.Eq, Ast.Field ("p", "a"), Ast.Const (Value.str "n1"));
        };
      ]
  in
  let answers =
    Par.with_domains 4 (fun () ->
        Par.map ~shards:4 (fun _ -> Snapshot.query snap range))
  in
  let want =
    Relation.union expected
      (Relation.of_list (Relation.schema expected) [ str_pair "n1" "n7" ])
  in
  Array.iteri
    (fun i rel ->
      Alcotest.check rel_testable (Fmt.str "reader %d" i) want rel)
    answers;
  Alcotest.(check bool) "all readers were served one relation" true
    (serve_tc snap == serve_tc snap)

(* ------------------------------------------------------------------ *)
(* Versioned store *)

let test_snapshot_immutable () =
  let db = Database.create () in
  Database.declare db "Edge" Graph_gen.edge_schema;
  Database.insert db "Edge" (pair 1 2);
  let s1 = Database.snapshot db in
  let v1 = Snapshot.version s1 in
  Database.insert db "Edge" (pair 2 3);
  let s2 = Database.snapshot db in
  Alcotest.(check int) "monotone version" (v1 + 1) (Snapshot.version s2);
  Alcotest.(check (option rel_testable))
    "old snapshot unchanged"
    (Some (Relation.of_list Graph_gen.edge_schema [ pair 1 2 ]))
    (Snapshot.get s1 "Edge");
  Alcotest.(check (option rel_testable))
    "new snapshot sees the write"
    (Some (Relation.of_list Graph_gen.edge_schema [ pair 1 2; pair 2 3 ]))
    (Snapshot.get s2 "Edge");
  (* old snapshots keep answering queries *)
  Alcotest.(check int) "query old version" 1
    (Relation.cardinal (Snapshot.query s1 (Ast.Rel "Edge")))

let test_update_batch_one_version () =
  let db = Database.create () in
  Database.declare db "Edge" Graph_gen.edge_schema;
  Database.insert db "Edge" (pair 1 2);
  let v = Database.version db in
  Database.update_batch db
    [ ("Edge", [ pair 2 3; pair 3 4 ], [ pair 1 2 ]) ];
  Alcotest.(check int) "one version per batch" (v + 1) (Database.version db);
  Alcotest.(check rel_testable) "net effect"
    (Relation.of_list Graph_gen.edge_schema [ pair 2 3; pair 3 4 ])
    (Database.get db "Edge")

(* rollback must go through the single commit point: an injected fault
   leaves the version and the published snapshot untouched *)
let test_commit_rollback_publishes_nothing () =
  let db = Database.create () in
  Database.declare db "Edge" Graph_gen.edge_schema;
  Database.insert db "Edge" (pair 1 2);
  let before = Database.snapshot db in
  Guard.Failpoint.arm "ivm.commit" 1;
  (match Database.insert db "Edge" (pair 2 3) with
  | () -> Alcotest.fail "failpoint never hit"
  | exception Guard.Exhausted (Guard.Fault_injected "ivm.commit", _) -> ()
  | exception e ->
    Guard.Failpoint.reset ();
    raise e);
  Guard.Failpoint.reset ();
  Alcotest.(check bool)
    "published snapshot is still the old one" true
    (Database.snapshot db == before);
  Alcotest.(check int) "version unchanged" (Snapshot.version before)
    (Database.version db);
  Alcotest.(check rel_testable) "binding rolled back"
    (Relation.of_list Graph_gen.edge_schema [ pair 1 2 ])
    (Database.get db "Edge")

(* ------------------------------------------------------------------ *)
(* Server basics *)

let test_submit_serializes () =
  let db = Database.create () in
  let srv = Server.create db in
  let counter = ref 0 in
  let threads =
    Array.init 8 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 100 do
              Server.submit srv (fun () -> incr counter)
            done)
          ())
  in
  Array.iter Thread.join threads;
  Alcotest.(check int) "all jobs ran exactly once" 800 !counter;
  (* re-entrant submit runs inline on the writer thread, no deadlock *)
  let nested =
    Server.submit srv (fun () -> Server.submit srv (fun () -> 41) + 1)
  in
  Alcotest.(check int) "nested submit" 42 nested;
  (* exceptions propagate to the submitter, writer survives *)
  (match Server.submit srv (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure msg -> Alcotest.(check string) "payload" "boom" msg);
  Alcotest.(check int) "writer alive" 7 (Server.submit srv (fun () -> 7));
  Server.shutdown srv;
  (match Server.submit srv (fun () -> ()) with
  | () -> Alcotest.fail "accepted after shutdown"
  | exception Server.Error _ -> ())

let test_admission_control () =
  let db = Database.create () in
  let srv = Server.create ~max_sessions:2 db in
  let s1 = Server.open_session srv in
  let s2 = Server.open_session srv in
  Alcotest.(check int) "two open" 2 (Server.session_count srv);
  (match Server.open_session srv with
  | _ -> Alcotest.fail "admission control did not trip"
  | exception Server.Error _ -> ());
  Server.close_session s1;
  let s3 = Server.open_session srv in
  Server.close_session s2;
  Server.close_session s3;
  (* closing twice is a no-op *)
  Server.close_session s3;
  Alcotest.(check int) "all closed" 0 (Server.session_count srv);
  Server.shutdown srv

let test_session_limits () =
  let db = Database.create () in
  Database.declare db "Edge" Graph_gen.edge_schema;
  Database.set db "Edge"
    (Graph_gen.random_graph ~seed:7 ~nodes:20 ~edges:60);
  let srv = Server.create db in
  (* a scan that actually ticks the row guard: EACH e IN Edge: TRUE *)
  let scan =
    Ast.Comp [ { Ast.binders = [ ("e", Ast.Rel "Edge") ]; target = []; where = Ast.True } ]
  in
  let tight = Server.open_session ~limits:(Guard.limits ~rows:3 ()) srv in
  (match Server.query tight scan with
  | _ -> Alcotest.fail "tight session guard never tripped"
  | exception Guard.Exhausted (Guard.Rows_exhausted _, _) -> ());
  let roomy = Server.open_session srv in
  let rel, _ = Server.query roomy scan in
  Alcotest.(check int) "default session unaffected" 60 (Relation.cardinal rel);
  Server.close_session tight;
  Server.close_session roomy;
  Server.shutdown srv

let contains_s s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

let test_session_pinning () =
  let db = Database.create () in
  Database.declare db "Edge" Graph_gen.edge_schema;
  Database.insert db "Edge" (pair 1 2);
  let srv = Server.create db in
  let reader = Server.open_session srv in
  let writer = Server.open_session srv in
  let out = Server.execute reader "BEGIN;" in
  Alcotest.(check bool) "pinned" true (contains_s out "pinned snapshot");
  let _, v1 = Server.query reader (Ast.Rel "Edge") in
  ignore (Server.execute writer {|INSERT Edge VALUES ("n3", "n4");|});
  (* the pinned reader still sees the old version... *)
  let rel, v2 = Server.query reader (Ast.Rel "Edge") in
  Alcotest.(check int) "same pinned version" v1 v2;
  Alcotest.(check int) "old extent" 1 (Relation.cardinal rel);
  (* ...and writes inside the transaction are rejected *)
  (match Server.execute reader {|INSERT Edge VALUES ("n5", "n6");|} with
  | _ -> Alcotest.fail "write allowed inside read-only transaction"
  | exception Dc_lang.Elaborate.Elab_error msg ->
    Alcotest.(check bool) "reason" true (contains_s msg "BEGIN"));
  let out = Server.execute reader "COMMIT;" in
  Alcotest.(check bool) "released" true (contains_s out "released");
  let rel, v3 = Server.query reader (Ast.Rel "Edge") in
  Alcotest.(check bool) "unpinned reader advances" true (v3 > v1);
  Alcotest.(check int) "new extent" 2 (Relation.cardinal rel);
  Server.close_session reader;
  Server.close_session writer;
  Server.shutdown srv

(* ------------------------------------------------------------------ *)
(* Aggregated constructors on the snapshot path *)

let shortest_path_server () =
  let db = Database.create () in
  let srv = Server.create db in
  let s = Server.open_session srv in
  ignore (Server.execute s (Oracle.example_source "shortest_path.dbpl"));
  Server.close_session s;
  (db, srv)

(* Road{shortest} read through a session's snapshot must give the rows
   the writer's own evaluation (what `dbpl run` prints) gives. *)
let test_aggregate_snapshot_read () =
  let db, srv = shortest_path_server () in
  let expected =
    Database.query db Ast.(Construct (Rel "Road", "shortest", []))
  in
  Alcotest.(check int) "dbpl run's 12 rows" 12 (Relation.cardinal expected);
  let s = Server.open_session srv in
  let got, _ = Server.query_string s "QUERY Road{shortest};" in
  Alcotest.check rel_testable "snapshot read = writer read" expected got;
  Server.close_session s;
  Server.shutdown srv

let test_aggregate_session_limits () =
  let _, srv = shortest_path_server () in
  let tight = Server.open_session ~limits:(Guard.limits ~rounds:1 ()) srv in
  (match Server.query_string tight "QUERY Road{shortest};" with
  | _ -> Alcotest.fail "session round limit never tripped"
  | exception Guard.Exhausted (Guard.Rounds_exhausted 1, _) -> ());
  let roomy = Server.open_session srv in
  let rel, _ = Server.query_string roomy "QUERY Road{shortest};" in
  Alcotest.(check int) "unlimited session answers" 12 (Relation.cardinal rel);
  Server.close_session tight;
  Server.close_session roomy;
  Server.shutdown srv

(* ------------------------------------------------------------------ *)
(* SHOW SNAPSHOT golden *)

let snapshot_surface =
  {|
TYPE node = STRING;
TYPE edgerel = RELATION a, b OF RECORD a, b: node END;
VAR Edge: edgerel;
VAR Other: edgerel;
CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <e.a, p.b> OF EACH e IN Rel, EACH p IN Rel{tc()}: e.b = p.a
END tc;
INSERT Edge VALUES ("a", "b"), ("b", "c");
MATERIALIZE Edge{tc()};
SHOW SNAPSHOT;
SET MAINTAIN OFF;
INSERT Edge VALUES ("c", "d");
SHOW SNAPSHOT;
|}

let test_show_snapshot_golden () =
  let _db, out = Dc_lang.Elaborate.run_string snapshot_surface in
  let golden =
    "SHOW SNAPSHOT\n\
     version 5: 2 relations, 1 view\n\
     \n\
     SHOW SNAPSHOT\n\
     version 7: 2 relations, 1 view (stale: tc__Edge)\n\
     \n"
  in
  (* keep only the SHOW SNAPSHOT sections: MATERIALIZE also prints *)
  let shown =
    let lines = String.split_on_char '\n' out in
    let rec keep acc = function
      | [] -> List.rev acc
      | l :: rest when contains_s l "SHOW SNAPSHOT" -> (
        match rest with
        | v :: rest -> keep (("" :: v :: [ l ]) @ acc) rest
        | [] -> keep (l :: acc) [])
      | _ :: rest -> keep acc rest
    in
    String.concat "\n" (List.concat_map Fun.id [ keep [] lines ]) ^ "\n"
  in
  Alcotest.(check string) "golden" golden shown

(* ------------------------------------------------------------------ *)
(* The stress test: 1 writer, N readers, sequential replay oracle *)

let nodes = 10
let writer_batches = 200

(* one randomized batch against the current pure extent: deletions of
   existing tuples, insertions of absent ones, disjoint, never empty.
   Deletions come only from the pre-batch extent — [update_batch]
   applies removals before additions, so deleting a same-batch insert
   would not round-trip *)
let gen_batch rng rel =
  let ops = 1 + Rng.int rng 4 in
  let dels = ref [] and adds = ref [] in
  let current = ref rel in
  for _ = 1 to ops do
    let deletable =
      List.filter (fun t -> Relation.mem t rel) (Relation.to_list !current)
    in
    if deletable <> [] && Rng.bool rng 0.45 then begin
      let t = List.nth deletable (Rng.int rng (List.length deletable)) in
      current := Relation.remove t !current;
      dels := t :: !dels
    end
    else begin
      let t = pair (Rng.int rng nodes) (Rng.int rng nodes) in
      if not (Relation.mem t rel) && not (List.exists (Tuple.equal t) !adds)
      then begin
        current := Relation.add t !current;
        adds := t :: !adds
      end
    end
  done;
  if !adds = [] && !dels = [] then begin
    (* guarantee progress: delete one existing or add a fresh tuple *)
    match Relation.to_list !current with
    | t :: _ ->
      dels := [ t ];
      current := Relation.remove t !current
    | [] ->
      adds := [ pair 0 1 ];
      current := Relation.add (pair 0 1) !current
  end;
  (!adds, !dels, !current)

(* sequential replay oracle: randomized batches plus the expected extent
   and expected transitive closure after each, indexed by
   batches-applied *)
let build_oracle rng init =
  let expected_edge = Array.make (writer_batches + 1) init in
  let batches = Array.make writer_batches ([], []) in
  let cur = ref init in
  for i = 0 to writer_batches - 1 do
    let adds, dels, next = gen_batch rng !cur in
    batches.(i) <- (adds, dels);
    cur := next;
    expected_edge.(i + 1) <- next
  done;
  let expected_path =
    Array.map
      (fun rel ->
        Seminaive.query Oracle.tc_nonlinear
          (Facts.of_relation "edge" rel (Facts.empty ()))
          "path")
      expected_edge
  in
  (batches, expected_edge, expected_path)

let test_stress ~readers ~reads_per_reader seed () =
  let rng = Rng.create seed in
  let init =
    Graph_gen.random_graph ~seed:(Rng.int rng 1_000_000) ~nodes
      ~edges:(2 * nodes)
  in
  let batches, expected_edge, expected_path = build_oracle rng init in
  (* live database: edge + a maintained transitive closure view *)
  let db = Database.create () in
  Database.declare db "edge" Graph_gen.edge_schema;
  Database.set db "edge" init;
  let schema_of _ = Graph_gen.edge_schema in
  let defs, bottoms = Translate.to_constructors schema_of Oracle.tc_nonlinear in
  List.iter (fun (n, s) -> Database.declare db n s) bottoms;
  Database.define_constructors db defs;
  let view =
    Ivm.materialize db ~constructor:"path" ~base:"__bottom_path" ~args:[]
  in
  ignore view;
  let srv = Server.create db in
  let v0 = Database.version db in
  let path_range = Ast.Construct (Ast.Rel "__bottom_path", "path", []) in
  let failures = ref [] in
  let fail_m = Mutex.create () in
  let record fmt =
    Fmt.kstr
      (fun msg -> Mutex.protect fail_m (fun () -> failures := msg :: !failures))
      fmt
  in
  let writer () =
    Array.iter
      (fun (adds, dels) ->
        Server.submit srv (fun () ->
            Database.update_batch db [ ("edge", adds, dels) ]))
      batches
  in
  let reader r () =
    let s = Server.open_session srv in
    let last_v = ref (-1) in
    for i = 1 to reads_per_reader do
      let want_path = (i + r) mod 2 = 0 in
      let rel, v =
        Server.query s (if want_path then path_range else Ast.Rel "edge")
      in
      let idx = v - v0 in
      if idx < 0 || idx > writer_batches then
        record "seed %d reader %d read %d: version %d outside [%d, %d]" seed r
          i v v0 (v0 + writer_batches)
      else if v < !last_v then
        record "seed %d reader %d read %d: version went backwards (%d after %d)"
          seed r i v !last_v
      else begin
        last_v := v;
        if want_path then begin
          let got = ts_of_relation rel in
          if not (TS.equal expected_path.(idx) got) then
            record
              "seed %d reader %d read %d: path at version %d diverged from \
               oracle (%d vs %d tuples)"
              seed r i v (TS.cardinal got)
              (TS.cardinal expected_path.(idx))
        end
        else if not (Relation.equal expected_edge.(idx) rel) then
          record
            "seed %d reader %d read %d: edge at version %d diverged from \
             oracle (%d vs %d tuples)"
            seed r i v (Relation.cardinal rel)
            (Relation.cardinal expected_edge.(idx))
      end
    done;
    Server.close_session s
  in
  let wt = Thread.create writer () in
  let rts = Array.init readers (fun r -> Thread.create (reader r) ()) in
  Thread.join wt;
  Array.iter Thread.join rts;
  Alcotest.(check int)
    (Fmt.str "seed %d: one version per batch" seed)
    (v0 + writer_batches) (Database.version db);
  (* final state converged to the oracle's *)
  Alcotest.check rel_testable
    (Fmt.str "seed %d: final edge extent" seed)
    expected_edge.(writer_batches)
    (Database.get db "edge");
  let got = ts_of_relation (Database.query db path_range) in
  if not (TS.equal expected_path.(writer_batches) got) then
    Alcotest.failf "seed %d: final path extent diverged (%d vs %d tuples)" seed
      (TS.cardinal got)
      (TS.cardinal expected_path.(writer_batches));
  Server.shutdown srv;
  match !failures with
  | [] -> ()
  | msgs ->
    Alcotest.failf "%d isolation violations, first: %s" (List.length msgs)
      (List.hd (List.rev msgs))

(* ------------------------------------------------------------------ *)
(* The same contract over the wire: 1 writer, N TCP reader clients *)

module Net = Dc_net.Net

let socket_setup =
  {|
TYPE node = STRING;
TYPE edgerel = RELATION a, b OF RECORD a, b: node END;
VAR Edge: edgerel;
CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <e.a, p.b> OF EACH e IN Rel, EACH p IN Rel{tc()}: e.b = p.a
END tc;
|}

let ts_of_tuples tuples =
  List.fold_left (fun acc t -> TS.add t acc) TS.empty tuples

(* the in-process stress proves snapshot isolation; this one proves the
   whole network stack preserves it — every read crosses the wire
   protocol, a connection thread, and the domain pool, and must still
   match the sequential replay oracle at exactly its observed version *)
let test_socket_stress ~readers ~reads_per_reader seed () =
  let rng = Rng.create seed in
  (* the surface [edgerel] names its columns a/b, so rebase the
     generated graph onto that schema *)
  let surface_schema =
    Dc_core.Constructor.binary_schema ~a:"a" ~b:"b" Value.TStr
  in
  let init =
    Relation.of_list surface_schema
      (Relation.to_list
         (Graph_gen.random_graph ~seed:(Rng.int rng 1_000_000) ~nodes
            ~edges:(2 * nodes)))
  in
  let batches, expected_edge, expected_path = build_oracle rng init in
  let expected_edge_ts = Array.map ts_of_relation expected_edge in
  let db = Database.create () in
  let srv = Server.create db in
  let s = Server.open_session srv in
  ignore (Server.execute s socket_setup);
  Server.close_session s;
  Server.submit srv (fun () -> Database.set db "Edge" init);
  let listener = Net.listen srv (Net.Tcp ("127.0.0.1", 0)) in
  let port = Net.bound_port listener in
  let v0 = Database.version db in
  let failures = ref [] in
  let fail_m = Mutex.create () in
  let record fmt =
    Fmt.kstr
      (fun msg -> Mutex.protect fail_m (fun () -> failures := msg :: !failures))
      fmt
  in
  let writer () =
    Array.iter
      (fun (adds, dels) ->
        Server.submit srv (fun () ->
            Database.update_batch db [ ("Edge", adds, dels) ]))
      batches
  in
  let reader r () =
    let c = Net.Client.connect (Net.Tcp ("127.0.0.1", port)) in
    let last_v = ref (-1) in
    (try
       for i = 1 to reads_per_reader do
         let want_path = (i + r) mod 2 = 0 in
         let v, _cols, tuples =
           Net.Client.query c
             (if want_path then "QUERY Edge{tc()};" else "QUERY Edge;")
         in
         let idx = v - v0 in
         if idx < 0 || idx > writer_batches then
           record "seed %d client %d read %d: version %d outside [%d, %d]"
             seed r i v v0 (v0 + writer_batches)
         else if v < !last_v then
           record
             "seed %d client %d read %d: version went backwards (%d after %d)"
             seed r i v !last_v
         else begin
           last_v := v;
           let got = ts_of_tuples tuples in
           let expected =
             if want_path then expected_path.(idx) else expected_edge_ts.(idx)
           in
           if not (TS.equal expected got) then
             record
               "seed %d client %d read %d: %s at version %d diverged from \
                oracle (%d vs %d tuples)"
               seed r i
               (if want_path then "tc" else "edge")
               v (TS.cardinal got) (TS.cardinal expected)
         end
       done
     with e -> record "seed %d client %d died: %s" seed r (Printexc.to_string e));
    Net.Client.close c
  in
  let wt = Thread.create writer () in
  let rts = Array.init readers (fun r -> Thread.create (reader r) ()) in
  Thread.join wt;
  Array.iter Thread.join rts;
  (* convergence, observed through a fresh client *)
  let c = Net.Client.connect (Net.Tcp ("127.0.0.1", port)) in
  let v, _, tuples = Net.Client.query c "QUERY Edge;" in
  Alcotest.(check int)
    (Fmt.str "seed %d: one version per batch" seed)
    (v0 + writer_batches) v;
  if not (TS.equal expected_edge_ts.(writer_batches) (ts_of_tuples tuples)) then
    Alcotest.failf "seed %d: final edge extent diverged over the wire" seed;
  let _, _, path_tuples = Net.Client.query c "QUERY Edge{tc()};" in
  if not (TS.equal expected_path.(writer_batches) (ts_of_tuples path_tuples))
  then Alcotest.failf "seed %d: final tc extent diverged over the wire" seed;
  Net.Client.close c;
  Net.stop listener;
  Server.shutdown srv;
  match !failures with
  | [] -> ()
  | msgs ->
    Alcotest.failf "%d isolation violations over the wire, first: %s"
      (List.length msgs)
      (List.hd (List.rev msgs))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dc_server"
    [
      ( "freeze discipline",
        [
          Alcotest.test_case "facts freeze" `Quick test_facts_freeze;
        ] );
      ( "view serve memo",
        [
          Alcotest.test_case "one relation per published version" `Quick
            test_serve_memo_per_version;
          Alcotest.test_case "view point read = unmaterialized read" `Quick
            test_view_point_read;
          Alcotest.test_case "concurrent readers of a fresh snapshot" `Quick
            test_serve_memo_concurrent;
        ] );
      ( "versioned store",
        [
          Alcotest.test_case "snapshot immutability" `Quick
            test_snapshot_immutable;
          Alcotest.test_case "update_batch is one version" `Quick
            test_update_batch_one_version;
          Alcotest.test_case "rollback publishes nothing" `Quick
            test_commit_rollback_publishes_nothing;
        ] );
      ( "server",
        [
          Alcotest.test_case "writer serialization" `Quick
            test_submit_serializes;
          Alcotest.test_case "admission control" `Quick test_admission_control;
          Alcotest.test_case "per-session limits" `Quick test_session_limits;
          Alcotest.test_case "BEGIN/COMMIT pinning" `Quick test_session_pinning;
          Alcotest.test_case "aggregated constructor snapshot read" `Quick
            test_aggregate_snapshot_read;
          Alcotest.test_case "per-session limits bound aggregates" `Quick
            test_aggregate_session_limits;
        ] );
      ( "surface",
        [
          Alcotest.test_case "SHOW SNAPSHOT golden" `Quick
            test_show_snapshot_golden;
        ] );
      ( "stress",
        [
          Alcotest.test_case "1 writer + 4 readers vs oracle" `Slow
            (test_stress ~readers:4 ~reads_per_reader:200 0xC0FFEE);
          Alcotest.test_case "1 writer + 4 socket readers vs oracle" `Slow
            (test_socket_stress ~readers:4 ~reads_per_reader:200 0xBEEF);
          (* wide fan-in: 64 in-process sessions (the default session
             bound) and 16 wire clients; each case stays within seconds *)
          Alcotest.test_case "1 writer + 64 readers vs oracle" `Slow
            (test_stress ~readers:64 ~reads_per_reader:100 0xFA57);
          Alcotest.test_case "1 writer + 16 socket readers vs oracle" `Slow
            (test_socket_stress ~readers:16 ~reads_per_reader:200 0x50CC);
        ] );
    ]
