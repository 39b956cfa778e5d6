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
module Planner = Dc_compile.Planner
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
    let def = Snapshot.SM.find "tc" snap.Snapshot.state.constructors in
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
(* EXPLAIN and BEGIN over the session's environment: the session's
   limits and its pinned snapshot, as its QUERY sees them *)

(* A 60-edge chain under the right-recursive closure: 1,830 pairs. *)
let chain_server () =
  let db = Database.create () in
  Database.declare db "Edge" Graph_gen.edge_schema;
  Database.set db "Edge" (Graph_gen.chain 60);
  Database.define_constructor db (Dc_core.Constructor.transitive_closure ());
  Database.define_constructor db (Oracle.even_paths ());
  Server.create db

let exhausted = "row budget exhausted"

let test_explain_session_limits () =
  let srv = chain_server () in
  let tight = Server.open_session ~limits:(Guard.limits ~rows:50 ()) srv in
  Alcotest.(check bool) "QUERY trips the session's row budget" true
    (contains_s (Server.execute tight "QUERY Edge{tc()};") exhausted);
  let out = Server.execute tight "EXPLAIN ANALYZE Edge{tc()};" in
  Alcotest.(check bool)
    (Fmt.str "EXPLAIN ANALYZE trips it too:@.%s" out)
    true (contains_s out exhausted);
  Alcotest.(check bool) "EXPLAIN trips it too" true
    (contains_s (Server.execute tight "EXPLAIN Edge{tc()};") exhausted);
  (* a session without limits runs the pinned plan to the end: the
     closure operator's rows, and a fixpoint's rounds (timed while
     metrics are on) *)
  let roomy = Server.open_session srv in
  let out = Server.execute roomy "EXPLAIN ANALYZE Edge{tc()};" in
  Alcotest.(check bool)
    (Fmt.str "roomy session completes the closure:@.%s" out)
    true
    ((not (contains_s out exhausted)) && contains_s out "closure tc over Rel");
  let was = Dc_obs.Obs.on () in
  Dc_obs.Obs.set_enabled true;
  let out =
    Fun.protect ~finally:(fun () -> Dc_obs.Obs.set_enabled was) (fun () ->
        Server.execute roomy "EXPLAIN ANALYZE Edge{even()};")
  in
  Alcotest.(check bool)
    (Fmt.str "roomy session completes with its rounds:@.%s" out)
    true
    ((not (contains_s out exhausted)) && contains_s out "fixpoint rounds:");
  Server.close_session tight;
  Server.close_session roomy;
  Server.shutdown srv

(* A server session never turns metrics on, yet its EXPLAIN ANALYZE
   reports the rounds of whichever recursive method ran — the direct
   fixpoint and the magic-set route alike — and leaves the switch off. *)
let test_explain_analyze_rounds_metrics_off () =
  let srv = chain_server () in
  let s = Server.open_session srv in
  let was = Dc_obs.Obs.on () in
  Dc_obs.Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Dc_obs.Obs.set_enabled was) (fun () ->
      List.iter
        (fun q ->
          let out = Server.execute s ("EXPLAIN ANALYZE " ^ q ^ ";") in
          Alcotest.(check bool)
            (Fmt.str "rounds reported for %s:@.%s" q out)
            true
            (contains_s out "fixpoint rounds:" && contains_s out "round 1:");
          Alcotest.(check bool) "metrics stay off" false (Dc_obs.Obs.on ()))
        [ "Edge{even()}"; {|{EACH p IN Edge{even()}: p.src = "n3"}|} ]);
  Server.close_session s;
  Server.shutdown srv

let test_explain_pinned_snapshot () =
  let srv = chain_server () in
  let reader = Server.open_session srv in
  let writer = Server.open_session srv in
  ignore (Server.execute reader "BEGIN;");
  ignore (Server.execute writer {|INSERT Edge VALUES ("x", "y");|});
  let q = {|{EACH e IN Edge: e.src = "x"}|} in
  Alcotest.(check bool) "QUERY sees the pinned version" true
    (contains_s (Server.execute reader ("QUERY " ^ q ^ ";")) "(0 tuples)");
  let out = Server.execute reader ("EXPLAIN ANALYZE " ^ q ^ ";") in
  Alcotest.(check bool)
    (Fmt.str "EXPLAIN ANALYZE runs over the pinned version:@.%s" out)
    true
    (contains_s out "rows=0" && not (contains_s out "rows=1"));
  ignore (Server.execute reader "COMMIT;");
  let out = Server.execute reader ("EXPLAIN ANALYZE " ^ q ^ ";") in
  Alcotest.(check bool)
    (Fmt.str "after COMMIT it sees the insert:@.%s" out)
    true (contains_s out "rows=1");
  Server.close_session reader;
  Server.close_session writer;
  Server.shutdown srv

let test_begin_keeps_session_limits () =
  let srv = chain_server () in
  let tight = Server.open_session ~limits:(Guard.limits ~rows:50 ()) srv in
  ignore (Server.execute tight "BEGIN;");
  let out = Server.execute tight "QUERY Edge{tc()};" in
  Alcotest.(check bool)
    (Fmt.str "a pinned QUERY trips the session's row budget:@.%s"
       (String.sub out 0 (min 200 (String.length out))))
    true (contains_s out exhausted);
  (match Server.query_string tight "QUERY Edge{tc()};" with
  | _ -> Alcotest.fail "served read escaped the session's row budget"
  | exception Guard.Exhausted (Guard.Rows_exhausted _, _) -> ());
  ignore (Server.execute tight "COMMIT;");
  Server.close_session tight;
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
(* Statement cache: cached = uncached

   [Server.query_string] serves a statement from the cached form of its
   shape when one exists at its snapshot's catalog version.  The oracle
   is the uncached evaluation of the same text on the same snapshot:
   parse, lower against the snapshot, plan against its catalog and run
   the decision over it.  A reply must equal the oracle's byte for byte
   (its wire encoding: version, columns, tuples), and a failure must
   carry the oracle's error code and message (a tripped guard's elapsed
   milliseconds aside).  Where the oracle answers with no limits set,
   the interpreter ([Snapshot.query]) must give the same rows and
   columns: planned = direct.  Under a row budget the two routes do
   different work, so only the planned one is the oracle there. *)

let cache_setup =
  {|
TYPE node = STRING;
TYPE edgerel = RELATION a, b OF RECORD a, b: node END;
TYPE pairrel = RELATION x, y OF RECORD x, y: node END;
VAR Edge: edgerel;
CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <e.a, p.b> OF EACH e IN Rel, EACH p IN Rel{tc()}: e.b = p.a
END tc;
|}

let cache_nodes = 12

(* Every published snapshot, by version: the oracle evaluates a reply on
   exactly the snapshot it observed. *)
type published = { pm : Mutex.t; by_version : (int, Snapshot.t) Hashtbl.t }

let record_published db =
  let p = { pm = Mutex.create (); by_version = Hashtbl.create 64 } in
  let add () =
    let snap = Database.snapshot db in
    Mutex.protect p.pm (fun () ->
        Hashtbl.replace p.by_version (Snapshot.version snap) snap)
  in
  add ();
  Database.set_wal_hooks db
    (Some
       {
         Database.wh_append = (fun ~version:_ ~catalog:_ ~changes:_ -> ());
         wh_published = (fun ~version:_ -> add ());
       });
  p

(* the snapshot of version [v], waiting for the writer's hook to record
   a version a reader has already observed *)
let published_at p v =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Mutex.protect p.pm (fun () -> Hashtbl.find_opt p.by_version v) with
    | Some snap -> snap
    | None when Unix.gettimeofday () > deadline ->
      Alcotest.failf "version %d was published outside a commit" v
    | None ->
      Thread.yield ();
      wait ()
  in
  wait ()

type outcome = Reply of string | Failed of string

let wire_rows (rel, version) =
  Dc_net.Wire.encode_response
    (Dc_net.Wire.Rows
       {
         version;
         columns = Schema.attr_names (Relation.schema rel);
         tuples = Relation.to_list rel;
       })

(* A tripped guard's report without its wall-clock figure.  [Str] keeps
   the last match in global state, and reader threads call this at
   once, so the search and its [match_end] run under one lock. *)
let str_lock = Mutex.create ()

let without_elapsed msg =
  Mutex.protect str_lock @@ fun () ->
  match Str.search_forward (Str.regexp "[0-9.]+ ms elapsed") msg 0 with
  | i -> String.sub msg 0 i ^ String.sub msg (Str.match_end ()) (String.length msg - Str.match_end ())
  | exception Not_found -> msg

let outcome f =
  match f () with
  | r -> Reply (wire_rows r)
  | exception e ->
    let code, msg = Dc_net.Net.classify_exn e in
    Failed (Fmt.str "%a: %s" Dc_net.Wire.pp_error_code code (without_elapsed msg))

let pp_outcome ppf = function
  | Reply r -> Fmt.pf ppf "reply of %d bytes" (String.length r)
  | Failed m -> Fmt.pf ppf "error %s" m

(* The uncached evaluation of [src] on [snap] under [limits]; an answer
   the interpreter contradicts is a [Failure]. *)
let uncached ?(limits = Guard.no_limits) env snap src =
  outcome (fun () ->
      match Dc_lang.Parser.parse src with
      | [ Dc_lang.Surface.D_query r ] ->
        let range =
          Dc_lang.Elaborate.with_snapshot env snap (fun () ->
              Dc_lang.Elaborate.lower_query env r)
        in
        let planned =
          Planner.execute
            (Snapshot.eval_env ~guard:(Guard.of_limits limits) snap)
            (Planner.plan (Snapshot.typecheck_env snap) range)
        in
        (if limits = Guard.no_limits then
           let direct = Snapshot.query snap range in
           if
             not
               (Relation.equal planned direct
               && Schema.attr_names (Relation.schema planned)
                  = Schema.attr_names (Relation.schema direct))
           then failwith (src ^ ": planned differs from the interpreter"));
        (planned, Snapshot.version snap)
      | _ -> raise (Server.Error "expected exactly one QUERY statement"))

let pinned_version out =
  Scanf.sscanf out "BEGIN\npinned snapshot version %d" Fun.id

(* A seeded read: the statement kinds of the served workloads (point
   reads, two-hop joins, closure point reads, which a materialized view
   serves once MATERIALIZE ran), literals varying and repeating, plus
   reads that name the catalog objects the writer creates — before and
   after they exist — and literals the shape keeps. *)
let gen_read rng =
  let node () = Printf.sprintf "n%d" (Rng.int rng cache_nodes) in
  let k () = Rng.int rng 3 in
  match Rng.int rng 11 with
  | 0 -> Printf.sprintf {|QUERY {EACH e IN Edge: e.a = "%s"};|} (node ())
  | 1 ->
    Printf.sprintf
      {|QUERY {<e.a, f.b> OF EACH e IN Edge, EACH f IN Edge: e.a = "%s" AND e.b = f.a};|}
      (node ())
  | 2 -> Printf.sprintf {|QUERY {EACH p IN Edge{tc()}: p.a = "%s"};|} (node ())
  | 3 -> Printf.sprintf {|QUERY {EACH p IN Edge{tc()}: "%s" = p.b};|} (node ())
  | 4 -> Printf.sprintf {|QUERY {EACH p IN Edge{c%d()}: p.a = "%s"};|} (k ()) (node ())
  | 5 -> Printf.sprintf {|QUERY {EACH p IN Edge{c%d()}: p.x = "%s"};|} (k ()) (node ())
  | 6 -> Printf.sprintf {|QUERY {EACH x IN X%d: x.a = "%s"};|} (k ()) (node ())
  | 7 -> Printf.sprintf {|QUERY Edge[sel%d("%s")];|} (k ()) (node ())
  | 8 -> Printf.sprintf {|QUERY {EACH e IN Edge: e.a = "n" + "%d"};|} (Rng.int rng cache_nodes)
  | 9 -> Printf.sprintf {|QUERY {EACH e IN Edge: e.a = %d};|} (Rng.int rng 3)
  | _ -> "QUERY Edge;"

(* A seeded write: point updates, and every kind of catalog statement.
   Constructors are redefined with either result type, so a stale form
   typed against the other one would answer where the oracle rejects. *)
let gen_write rng i =
  let node () = Printf.sprintf "n%d" (Rng.int rng cache_nodes) in
  let k = Rng.int rng 3 in
  match Rng.int rng 10 with
  | 0 | 1 | 2 -> Printf.sprintf {|INSERT Edge VALUES ("%s", "%s");|} (node ()) (node ())
  | 3 | 4 -> Printf.sprintf {|DELETE Edge VALUES ("%s", "%s");|} (node ()) (node ())
  | 5 -> Printf.sprintf "TYPE t%d = STRING;" i
  | 6 -> Printf.sprintf "VAR X%d: edgerel;" k
  | 7 ->
    Printf.sprintf
      "SELECTOR sel%d (v: node) FOR Rel: edgerel; BEGIN EACH r IN Rel: r.%s = v END sel%d;"
      k (if Rng.bool rng 0.5 then "a" else "b") k
  | 8 ->
    Printf.sprintf
      "CONSTRUCTOR c%d FOR Rel: edgerel (): %s; BEGIN <e.a, e.b> OF EACH e IN Rel: TRUE END c%d;"
      k (if Rng.bool rng 0.5 then "edgerel" else "pairrel") k
  | _ -> "MATERIALIZE Edge{tc()};"

let cache_server () =
  let db = Database.create () in
  let srv = Server.create db in
  let s = Server.open_session srv in
  ignore (Server.execute s cache_setup);
  ignore
    (Server.execute s
       (Printf.sprintf "INSERT Edge VALUES %s;"
          (String.concat ", "
             (List.init cache_nodes (fun i ->
                  Printf.sprintf {|("n%d", "n%d")|} i ((i + 1) mod cache_nodes))))));
  (db, srv, s)

(* One writer session and four reader sessions on systhreads, one of them
   under a row budget.  A reader sometimes pins a snapshot with BEGIN
   for a few reads.  A reply is
   checked on the snapshot of the version it reports; a failure, which
   reports no version, on some snapshot published while the read ran. *)
let test_cache_differential seed () =
  let db, srv, writer = cache_server () in
  let published = record_published db in
  let failures = ref [] and checked = ref 0 in
  let fm = Mutex.create () in
  let fail fmt =
    Fmt.kstr (fun m -> Mutex.protect fm (fun () -> failures := m :: !failures)) fmt
  in
  let check_read ?limits s env ~pinned src =
    let before = Database.version db in
    let got = outcome (fun () -> Server.query_string s src) in
    let after = Database.version db in
    let candidates =
      match pinned, got with
      | Some v, _ -> [ v ]
      | None, Reply r ->
        [ (Dc_net.Wire.(match decode_response r with Rows { version; _ } -> version | _ -> -1)) ]
      | None, Failed _ -> List.init (after - before + 1) (fun i -> before + i)
    in
    let oracles =
      List.map (fun v -> uncached ?limits env (published_at published v) src) candidates
    in
    Mutex.protect fm (fun () -> incr checked);
    if not (List.mem got oracles) then
      fail "seed %d: %s gave %a, uncached gave %a" seed src pp_outcome got
        Fmt.(list ~sep:(any " / ") pp_outcome)
        oracles
  in
  (* a sequential prefix: a form cached against one constructor result
     type must not answer after the constructor changed it *)
  let s0 = Server.open_session srv in
  let env0 = Dc_lang.Elaborate.create db in
  List.iter
    (fun src ->
      if String.length src > 6 && String.sub src 0 6 = "QUERY " then
        check_read s0 env0 ~pinned:None src
      else ignore (Server.execute writer src))
    [
      "CONSTRUCTOR c0 FOR Rel: edgerel (): edgerel; BEGIN <e.a, e.b> OF EACH e IN Rel: TRUE END c0;";
      {|QUERY {EACH p IN Edge{c0()}: p.a = "n1"};|};
      {|QUERY {EACH p IN Edge{c0()}: p.a = "n2"};|};
      "CONSTRUCTOR c0 FOR Rel: edgerel (): pairrel; BEGIN <e.a, e.b> OF EACH e IN Rel: TRUE END c0;";
      {|QUERY {EACH p IN Edge{c0()}: p.a = "n3"};|};
      {|QUERY {EACH p IN Edge{c0()}: p.x = "n3"};|};
      {|QUERY {EACH p IN Edge{c0()}: p.x = "n4"};|};
    ];
  Server.close_session s0;
  let writer_thread () =
    let rng = Rng.create seed in
    for i = 1 to 150 do
      (try ignore (Server.execute writer (gen_write rng i)) with _ -> ());
      Thread.yield ()
    done
  in
  let reader r () =
    let rng = Rng.create ((seed * 7) + r) in
    (* one session reads under a row budget that closure reads exceed *)
    let limits = if r = 3 then Some (Guard.limits ~rows:6 ()) else None in
    let s = Server.open_session ?limits srv in
    let env = Dc_lang.Elaborate.create db in
    let pinned = ref None and left = ref 0 in
    for _ = 1 to 150 do
      (match !pinned with
      | None when Rng.int rng 10 = 0 ->
        pinned := Some (pinned_version (Server.execute s "BEGIN;"));
        left := 1 + Rng.int rng 6
      | Some _ when !left = 0 ->
        ignore (Server.execute s "COMMIT;");
        pinned := None
      | _ -> ());
      decr left;
      check_read ?limits s env ~pinned:!pinned (gen_read rng)
    done;
    if !pinned <> None then ignore (Server.execute s "COMMIT;");
    Server.close_session s
  in
  let wt = Thread.create writer_thread () in
  let rts = List.init 4 (fun r -> Thread.create (reader r) ()) in
  Thread.join wt;
  List.iter Thread.join rts;
  Database.set_wal_hooks db None;
  Server.close_session writer;
  Server.shutdown srv;
  Alcotest.(check bool) (Fmt.str "seed %d: reads checked" seed) true (!checked >= 600);
  match !failures with
  | [] -> ()
  | msgs ->
    Alcotest.failf "%d cached reads differ from uncached, first: %s"
      (List.length msgs) (List.hd (List.rev msgs))

(* The cache holds at most 256 forms and 1 MiB of shape text, evicting
   oldest first: 300 distinct shapes evict 44 forms, the most recent
   shape still hits, and a statement over the byte bound is answered but
   never cached. *)
let test_cache_bounds () =
  let was = Dc_obs.Obs.on () in
  Dc_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Dc_obs.Obs.set_enabled was) @@ fun () ->
  let _, srv, s = cache_server () in
  let count result =
    Dc_obs.Obs.Counter.value
      (Dc_obs.Obs.Counter.make ~labels:[ ("result", result) ]
         "dc_server_stmt_cache_total")
  in
  let read src =
    let rel, _ = Server.query_string s src in
    Relation.cardinal rel
  in
  (* [#] keeps its literal in the shape: one shape per [i] *)
  let shape i = Printf.sprintf {|QUERY {EACH e IN Edge: e.a = "n1" AND e.b # "k%d"};|} i in
  let evict0 = count "evict" in
  for i = 1 to 300 do
    Alcotest.(check int) "answered" 1 (read (shape i))
  done;
  Alcotest.(check int) "oldest forms evicted" 44 (count "evict" - evict0);
  let hit0 = count "hit" and miss0 = count "miss" in
  ignore (read (shape 300));
  ignore (read (shape 1));
  Alcotest.(check int) "recent shape hits" 1 (count "hit" - hit0);
  Alcotest.(check int) "evicted shape misses" 1 (count "miss" - miss0);
  let huge =
    Printf.sprintf {|QUERY {EACH e IN Edge: e.a = "n1" AND e.b # "%s"};|}
      (String.make (1 lsl 20) 'x')
  in
  let miss1 = count "miss" and evict1 = count "evict" in
  Alcotest.(check int) "huge statement answered" 1 (read huge);
  Alcotest.(check int) "and again" 1 (read huge);
  Alcotest.(check int) "never cached" 2 (count "miss" - miss1);
  Alcotest.(check int) "nothing evicted for it" 0 (count "evict" - evict1);
  Server.close_session s;
  Server.shutdown srv

(* A BEGIN-pinned session resolves a read's names in its pinned catalog,
   cached or not: a relation declared after the pin is unknown to it,
   even once another session's read of the same statement has cached it
   at the new catalog version. *)
let test_cache_pinned_catalog () =
  let db, srv, writer = cache_server () in
  ignore
    (Server.execute writer
       {|CONSTRUCTOR via FOR Rel: edgerel (Other: edgerel): edgerel;
BEGIN <e.a, o.b> OF EACH e IN Rel, EACH o IN Other: e.b = o.a END via;|});
  let pinned = Server.open_session srv in
  let v = pinned_version (Server.execute pinned "BEGIN;") in
  let snap = Database.snapshot db in
  Alcotest.(check int) "pinned the latest" (Snapshot.version snap) v;
  ignore (Server.execute writer "VAR X: edgerel;");
  ignore (Server.execute writer {|INSERT X VALUES ("n1", "n5");|});
  let env = Dc_lang.Elaborate.create db in
  let reads =
    [ {|QUERY {EACH p IN Edge{via(X)}: p.a = "n0"};|}; {|QUERY {EACH x IN X: x.a = "n1"};|} ]
  in
  let fresh = Server.open_session srv in
  List.iter
    (fun src ->
      let expected = uncached env snap src in
      (match expected with
      | Failed _ -> ()
      | Reply _ -> Alcotest.failf "%s answered on a catalog without X" src);
      (* uncached in the pinned session *)
      Alcotest.(check bool) (src ^ ": pinned, uncached") true
        (outcome (fun () -> Server.query_string pinned src) = expected);
      (* a session on the latest catalog answers and caches the form *)
      (match outcome (fun () -> Server.query_string fresh src) with
      | Reply _ -> ()
      | Failed m -> Alcotest.failf "%s on the latest catalog: %s" src m);
      (match outcome (fun () -> Server.query_string fresh src) with
      | Reply _ -> ()
      | Failed m -> Alcotest.failf "%s cached on the latest catalog: %s" src m);
      (* the pinned session still gets its catalog's answer *)
      Alcotest.(check bool) (src ^ ": pinned, after caching") true
        (outcome (fun () -> Server.query_string pinned src) = expected))
    reads;
  (match uncached env snap (List.hd reads) with
  | Failed m ->
    Alcotest.(check bool) "lowered against the pinned catalog" true
      (contains_s m "unknown argument name X")
  | Reply _ -> ());
  ignore (Server.execute pinned "COMMIT;");
  List.iter Server.close_session [ pinned; fresh; writer ];
  Server.shutdown srv

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
          Alcotest.test_case "EXPLAIN under session limits" `Quick
            test_explain_session_limits;
          Alcotest.test_case "EXPLAIN over the pinned snapshot" `Quick
            test_explain_pinned_snapshot;
          Alcotest.test_case "EXPLAIN ANALYZE rounds, metrics off" `Quick
            test_explain_analyze_rounds_metrics_off;
          Alcotest.test_case "BEGIN keeps session limits" `Quick
            test_begin_keeps_session_limits;
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
      ( "statement cache",
        [
          Alcotest.test_case "cached = uncached, 1 writer + 4 readers" `Quick
            (test_cache_differential 0x5EED);
          Alcotest.test_case "reads resolve in the pinned catalog" `Quick
            test_cache_pinned_catalog;
          Alcotest.test_case "bounded in forms and bytes" `Quick
            test_cache_bounds;
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
