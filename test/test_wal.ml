(* Durability: the write-ahead log, checkpoints, and crash recovery
   (lib/wal).

   The centerpiece is a seeded crash matrix: for each injected kill site
   — [wal.append] (mid-frame, torn bytes on disk), [wal.fsync] (record
   written, fsync never ran), [wal.checkpoint] (image written, rename
   never ran) and [wal.truncate] (checkpoint renamed, log never reset) —
   a durable database takes a randomized INSERT/DELETE stream with three
   live maintained views (a transitive closure maintained by
   re-traversal, a DRed even-path view and a counting two-hop join)
   until the fault fires, then the directory is recovered
   into a fresh process image and compared, tuple for tuple and
   derivation count for derivation count, against an in-memory oracle
   that applied exactly the acknowledged batches.  Each site has a
   defined oracle: a kill inside [wal.append] loses the unacknowledged
   commit; the other three sites crash after the record (or image) is
   complete, so recovery must land after it.

   Around it: frame codec round-trips and CRC rejection, torn-tail
   truncation at raw byte offsets, empty-delta commits keeping the
   version sequence consecutive across recovery, and the PR 5 x PR 7
   interplay — a recovered server serving a maintained closure view to a
   pinned BEGIN reader while the writer commits durably underneath. *)

open Dc_relation
open Dc_datalog
module Ast = Dc_calculus.Ast
module Database = Dc_core.Database
module Snapshot = Dc_core.Snapshot
module Ivm = Dc_ivm.Ivm
module Guard = Dc_guard.Guard
module Server = Dc_server.Server
module Rng = Dc_workload.Rng
module Graph_gen = Dc_workload.Graph_gen
module Codec = Dc_wal.Codec
module Wal = Dc_wal.Wal
module Durable = Dc_wal.Durable

let rel_testable = Alcotest.testable Relation.pp Relation.equal

(* ------------------------------------------------------------------ *)
(* Scratch directories *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_counter = ref 0

let fresh_dir tag =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "dc_wal_test_%d_%s_%d" (Unix.getpid ()) tag !dir_counter)
  in
  rm_rf d;
  d

(* ------------------------------------------------------------------ *)
(* Shared workload: a graph, its transitive closure, its even-length
   paths (DRed) and a counting two-hop view, randomized batches *)

let nodes = 10

let pair a b = Tuple.of_list [ Graph_gen.node a; Graph_gen.node b ]

(* hop(X,Z) :- edge(X,Y), edge(Y,Z) — non-recursive, so [materialize]
   picks the counting plan and the checkpoint must carry real
   derivation counts (a two-hop pair can derive many ways). *)
let hop_program =
  let open Syntax in
  [
    rule
      (atom "hop" [ var "X"; var "Z" ])
      [
        Pos (atom "edge" [ var "X"; var "Y" ]);
        Pos (atom "edge" [ var "Y"; var "Z" ]);
      ];
  ]

let path_range = Ast.Construct (Ast.Rel "__bottom_path", "path", [])

(* Declare edge, load [init], and materialize the three views; used for
   the durable database and for its in-memory oracle alike.  The
   even-path view is the one whose recursive derivation counts DRed
   keeps, which [check_same_state] compares once an update built them. *)
let setup db init =
  Database.declare db "edge" Graph_gen.edge_schema;
  Database.set db "edge" init;
  let schema_of _ = Graph_gen.edge_schema in
  let declare_views program con =
    let defs, bottoms = Translate.to_constructors schema_of program in
    List.iter (fun (n, s) -> Database.declare db n s) bottoms;
    Database.define_constructors db defs;
    Ivm.materialize db ~constructor:con ~base:("__bottom_" ^ con) ~args:[]
  in
  let path = declare_views Oracle.tc_nonlinear "path" in
  let hop = declare_views hop_program "hop" in
  ignore (declare_views Oracle.even_paths_program "even");
  (path, hop)

(* One randomized batch against the current pure extent: deletions of
   existing tuples, insertions of absent ones, disjoint, never empty. *)
let gen_batch rng rel =
  let ops = 1 + Rng.int rng 4 in
  let dels = ref [] and adds = ref [] in
  let current = ref rel in
  for _ = 1 to ops do
    (* deletion candidates exclude same-batch insertions, so adds and
       dels stay disjoint and the predicted extent is order-independent *)
    let ts =
      List.filter (fun t -> Relation.mem t rel) (Relation.to_list !current)
    in
    if ts <> [] && Rng.bool rng 0.45 then begin
      let t = List.nth ts (Rng.int rng (List.length ts)) in
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
    match Relation.to_list !current with
    | t :: _ ->
      dels := [ t ];
      current := Relation.remove t !current
    | [] ->
      adds := [ pair 0 1 ];
      current := Relation.add (pair 0 1) !current
  end;
  (!adds, !dels, !current)

(* ------------------------------------------------------------------ *)
(* State comparison: versions, every relation, every view's extent and
   derivation counts *)

let pp_supports ppf l =
  List.iter
    (fun (p, rows) ->
      Fmt.pf ppf "%s:" p;
      List.iter (fun (t, c) -> Fmt.pf ppf " %a=%d" Tuple.pp t c) rows)
    l

let supports_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (p, ra) (q, rb) ->
         String.equal p q
         && List.length ra = List.length rb
         && List.for_all2
              (fun (t, c) (u, d) -> Tuple.equal t u && c = d)
              ra rb)
       a b

let supports_testable = Alcotest.testable pp_supports supports_equal

let sorted_views db =
  List.sort (fun a b -> String.compare (Ivm.name a) (Ivm.name b)) (Ivm.views db)

let check_same_state ~msg oracle recovered =
  Alcotest.(check int)
    (msg ^ ": version")
    (Database.version oracle) (Database.version recovered);
  List.iter
    (fun name ->
      Alcotest.check rel_testable
        (Fmt.str "%s: relation %s" msg name)
        (Database.get oracle name)
        (Database.get recovered name))
    (List.sort String.compare (Database.relation_names oracle));
  let ov = sorted_views oracle and rv = sorted_views recovered in
  Alcotest.(check (list string))
    (msg ^ ": views")
    (List.map Ivm.name ov) (List.map Ivm.name rv);
  List.iter2
    (fun o r ->
      Alcotest.(check bool)
        (Fmt.str "%s: view %s not stale" msg (Ivm.name o))
        false (Ivm.is_stale r);
      Alcotest.check rel_testable
        (Fmt.str "%s: view %s extent" msg (Ivm.name o))
        (Ivm.value o) (Ivm.value r);
      (* a recursive component's counts exist once an update built them *)
      let counts v =
        if Ivm.counts_built o && Ivm.counts_built r then Ivm.support_counts v
        else (Ivm.dump v).Ivm.dp_supports
      in
      Alcotest.check supports_testable
        (Fmt.str "%s: view %s derivation counts" msg (Ivm.name o))
        (counts o) (counts r))
    ov rv

(* ------------------------------------------------------------------ *)
(* Frame codec units *)

let test_codec_roundtrip () =
  let buf = Buffer.create 64 in
  Codec.varint buf 0;
  Codec.varint buf 300;
  Codec.zigzag buf (-7);
  (* beyond ±2^61 the zigzag fold is negative: nine varint bytes *)
  List.iter (Codec.zigzag buf) [ max_int; min_int; 1 lsl 61 ];
  Codec.string_ buf "hello, \"wal\"\n";
  Codec.tuple buf
    (Tuple.of_list
       [ Value.Int 42; Value.str "x"; Value.Bool true; Value.Float 1.5 ]);
  let frame = Codec.frame_string (Buffer.contents buf) in
  let payload, next = Codec.read_frame frame 0 in
  Alcotest.(check int) "frame consumed" (String.length frame) next;
  let c = Codec.cursor payload in
  Alcotest.(check int) "varint 0" 0 (Codec.read_varint c);
  Alcotest.(check int) "varint 300" 300 (Codec.read_varint c);
  Alcotest.(check int) "zigzag -7" (-7) (Codec.read_zigzag c);
  List.iter
    (fun n -> Alcotest.(check int) "zigzag extreme" n (Codec.read_zigzag c))
    [ max_int; min_int; 1 lsl 61 ];
  Alcotest.(check string) "string" "hello, \"wal\"\n" (Codec.read_string c);
  let t = Codec.read_tuple c in
  Alcotest.(check bool) "tuple" true
    (Tuple.equal t
       (Tuple.of_list
          [ Value.Int 42; Value.str "x"; Value.Bool true; Value.Float 1.5 ]));
  Alcotest.(check bool) "cursor drained" true (Codec.at_end c)

(* CRC-32 (IEEE): the check value, and slicing by four against the
   bytewise definition over every alignment and tail length *)
let test_codec_crc32 () =
  Alcotest.(check int) "check value" 0xCBF43926 (Codec.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (Codec.crc32 "");
  let bytewise s pos len =
    let c = ref 0xFFFFFFFF in
    for i = pos to pos + len - 1 do
      c := !c lxor Char.code s.[i];
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done
    done;
    !c lxor 0xFFFFFFFF
  in
  let rng = Dc_workload.Rng.create 0xC4C in
  let s = String.init 300 (fun _ -> Char.chr (Dc_workload.Rng.int rng 256)) in
  for pos = 0 to 7 do
    for len = 0 to 40 do
      Alcotest.(check int)
        (Fmt.str "pos %d len %d" pos len)
        (bytewise s pos len) (Codec.crc32 ~pos ~len s)
    done
  done;
  Alcotest.(check int) "long" (bytewise s 3 297) (Codec.crc32 ~pos:3 s)

let test_codec_crc_rejects () =
  let frame = Codec.frame_string "payload bytes" in
  (* flip one payload byte: CRC must catch it *)
  let b = Bytes.of_string frame in
  Bytes.set b 9 (Char.chr (Char.code (Bytes.get b 9) lxor 0x40));
  (match Codec.read_frame (Bytes.to_string b) 0 with
  | _ -> Alcotest.fail "corrupt frame accepted"
  | exception Codec.Corrupt _ -> ());
  (* a truncated frame is torn, not silently short-read *)
  match Codec.read_frame (String.sub frame 0 (String.length frame - 1)) 0 with
  | _ -> Alcotest.fail "torn frame accepted"
  | exception Codec.Corrupt _ -> ()

(* ------------------------------------------------------------------ *)
(* Torn tails: byte-level truncation of wal.log loses exactly the torn
   suffix, and trailing garbage never reaches replay *)

let test_torn_tail () =
  (* ambient DC_FAILPOINT schedules (the CI crash-matrix axis) must not
     fire inside this test's own appends *)
  Guard.Failpoint.reset ();
  let dir = fresh_dir "torn" in
  let db = Database.create () in
  let _dur = Durable.open_dir ~db dir in
  Database.declare db "edge" Graph_gen.edge_schema;
  Database.set db "edge" (Graph_gen.chain 4);
  let rng = Rng.create 7 in
  let cur = ref (Graph_gen.chain 4) in
  (* expected extent after each of the 5 logged batches *)
  let states = ref [ (Database.version db, !cur) ] in
  for _ = 1 to 5 do
    let adds, dels, next = gen_batch rng !cur in
    Database.update_batch db [ ("edge", adds, dels) ];
    cur := next;
    states := (Database.version db, next) :: !states
  done;
  let wal_file = Filename.concat dir "wal.log" in
  let full = (Unix.stat wal_file).Unix.st_size in
  (* tear 3 bytes off the last frame: recovery must stop one batch short *)
  let fd = Unix.openfile wal_file [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (full - 3);
  Unix.close fd;
  let r1 = Durable.open_dir (* fresh db *) dir in
  let v4, e4 = List.nth !states 1 in
  Alcotest.(check int) "one batch lost" v4 (Database.version (Durable.db r1));
  Alcotest.check rel_testable "extent at torn recovery" e4
    (Database.get (Durable.db r1) "edge");
  (* now append garbage: replay must ignore the tail, not crash *)
  let fd = Unix.openfile wal_file [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  let garbage = "\xde\xad\xbe\xef garbage tail" in
  ignore (Unix.write_substring fd garbage 0 (String.length garbage));
  Unix.close fd;
  let r2 = Durable.open_dir dir in
  Alcotest.(check int) "garbage tail ignored" v4
    (Database.version (Durable.db r2));
  Alcotest.check rel_testable "extent after garbage tail" e4
    (Database.get (Durable.db r2) "edge");
  Durable.close r2

(* ------------------------------------------------------------------ *)
(* Empty deltas still log: the version sequence stays consecutive and
   recovery lands on the exact version, not just the same extent *)

let test_empty_delta_versions () =
  Guard.Failpoint.reset ();
  let dir = fresh_dir "empty" in
  let db = Database.create () in
  let dur = Durable.open_dir ~db dir in
  Database.declare db "edge" Graph_gen.edge_schema;
  Database.set db "edge" (Graph_gen.chain 3);
  Database.update_batch db [ ("edge", [ pair 7 8 ], []) ];
  Database.update_batch db [];
  Database.update_batch db [ ("edge", [], [ pair 7 8 ]) ];
  Database.update_batch db [];
  let v = Database.version db in
  let extent = Database.get db "edge" in
  Durable.close dur;
  let r = Durable.open_dir dir in
  Alcotest.(check int) "exact version" v (Database.version (Durable.db r));
  Alcotest.check rel_testable "extent" extent
    (Database.get (Durable.db r) "edge");
  Durable.close r

(* ------------------------------------------------------------------ *)
(* The crash matrix *)

let steps = 1000

(* a periodic checkpoint every 25 logged records, and on nothing else *)
let every_25 =
  { Durable.cp_records = Some 25; cp_bytes = None; cp_seconds = None }

exception Crashed of Tuple.t list * Tuple.t list

let crash_matrix site seed () =
  Guard.Failpoint.reset ();
  Fun.protect ~finally:Guard.Failpoint.reset @@ fun () ->
  let rng = Rng.create seed in
  let init =
    Graph_gen.random_graph ~seed:(Rng.int rng 1_000_000) ~nodes
      ~edges:(2 * nodes)
  in
  let dir = fresh_dir "crash" in
  let ddb = Database.create () in
  (* a record count low enough that the checkpoint-path sites fire
     well inside the stream *)
  let _dur = Durable.open_dir ~db:ddb ~policy:every_25 dir in
  ignore (setup ddb init);
  let odb = Database.create () in
  ignore (setup odb init);
  Alcotest.(check int)
    (Fmt.str "setup versions agree (seed %d)" seed)
    (Database.version odb) (Database.version ddb);
  (* arm only after setup: DDL commits checkpoint through the same
     sites, and the kill must land inside the update stream *)
  let n =
    match site with
    | "wal.append" | "wal.fsync" -> 1 + Rng.int rng steps (* per record *)
    | _ -> 1 + Rng.int rng 30 (* per periodic checkpoint (every 25) *)
  in
  Guard.Failpoint.arm site n;
  let cur = ref init in
  (try
     for _ = 1 to steps do
       let adds, dels, next = gen_batch rng !cur in
       (try Database.update_batch ddb [ ("edge", adds, dels) ]
        with Guard.Exhausted (Guard.Fault_injected s, _) when s = site ->
          raise (Crashed (adds, dels)));
       (* acknowledged: mirror on the oracle *)
       Database.update_batch odb [ ("edge", adds, dels) ];
       cur := next
     done;
     Alcotest.failf "failpoint %s armed at %d never fired (seed %d)" site n
       seed
   with Crashed (adds, dels) ->
     (* [wal.append] tears the record before any complete frame reaches
        the disk, so the crashed commit is lost; the other sites kill
        after the record (or the checkpoint image) is complete, so
        recovery must land after the crashed commit *)
     if not (String.equal site "wal.append") then
       Database.update_batch odb [ ("edge", adds, dels) ]);
  (* recover the directory into a fresh process image *)
  let r = Durable.open_dir dir in
  check_same_state
    ~msg:(Fmt.str "%s (seed %d)" site seed)
    odb (Durable.db r);
  Alcotest.(check bool)
    (Fmt.str "durable lsn present (seed %d)" seed)
    true
    (Database.durable_lsn (Durable.db r) > 0);
  Durable.close r;
  (* a second, clean recovery: close wrote a checkpoint, so nothing
     replays and the state is unchanged *)
  let r2 = Durable.open_dir dir in
  Alcotest.(check int)
    (Fmt.str "clean reopen replays nothing (seed %d)" seed)
    0 (Durable.replayed r2);
  check_same_state
    ~msg:(Fmt.str "%s clean reopen (seed %d)" site seed)
    odb (Durable.db r2);
  Durable.close r2

(* ------------------------------------------------------------------ *)
(* Statements and the view registry against the log *)

let tc_source =
  {|TYPE edgerel = RELATION a, b OF RECORD a, b: STRING END;
VAR Edge: edgerel;
CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <e.a, p.b> OF EACH e IN Rel, EACH p IN Rel{tc()}: e.b = p.a
END tc;
INSERT Edge VALUES ("a", "b"), ("b", "c"), ("c", "d");
|}

(* One elaboration session over [db]: type names persist across calls *)
let session db =
  let env = Dc_lang.Elaborate.create db in
  fun src -> ignore (Dc_lang.Elaborate.run env (Dc_lang.Parser.parse src))

(* A multi-row DELETE is one commit, so one WAL record *)
let test_multi_row_delete_one_record () =
  Guard.Failpoint.reset ();
  let dir = fresh_dir "delete" in
  let db = Database.create () in
  let dur = Durable.open_dir ~db dir in
  let run = session db in
  run tc_source;
  let lsn = Durable.durable_lsn dur and v = Database.version db in
  run {|DELETE Edge VALUES ("a", "b"), ("b", "c"), ("c", "d");|};
  Alcotest.(check int) "one WAL record" (lsn + 1) (Durable.durable_lsn dur);
  Alcotest.(check int) "one version" (v + 1) (Database.version db);
  Durable.close dur

(* The view registry is the database's journaled maintainer list: a
   re-MATERIALIZE whose registration checkpoint faults leaves the view
   it replaces registered, so the next catalog checkpoint, and the
   recovery from it, keep serving it. *)
let test_failed_rematerialize_keeps_view () =
  Guard.Failpoint.reset ();
  Fun.protect ~finally:Guard.Failpoint.reset @@ fun () ->
  let dir = fresh_dir "rematerialize" in
  let db = Database.create () in
  let dur = Durable.open_dir ~db dir in
  let agree step db =
    Alcotest.(check (list string))
      (step ^ ": Ivm.views names the snapshot's views")
      (Snapshot.view_names (Database.snapshot db))
      (List.map Ivm.name (Ivm.views db))
  in
  let run = session db in
  run (tc_source ^ "MATERIALIZE Edge{tc()};");
  agree "MATERIALIZE" db;
  Guard.Failpoint.arm "wal.checkpoint" 1;
  (match run "MATERIALIZE Edge{tc()};" with
  | () -> Alcotest.fail "wal.checkpoint never hit"
  | exception Guard.Exhausted (Guard.Fault_injected "wal.checkpoint", _) -> ());
  agree "failed re-MATERIALIZE" db;
  run "VAR Other: edgerel;";
  agree "catalog checkpoint" db;
  Durable.close dur;
  let r = Durable.open_dir dir in
  Alcotest.(check (list string))
    "the view survives the reopen" [ "tc__Edge" ]
    (Snapshot.view_names (Database.snapshot (Durable.db r)));
  agree "reopen" (Durable.db r);
  Durable.close r

(* ------------------------------------------------------------------ *)
(* Checkpoint policy: byte- and time-based scheduling bound the replay
   suffix where a record count cannot *)

let wal_bytes dir =
  match Unix.stat (Filename.concat dir "wal.log") with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let test_checkpoint_policy () =
  Guard.Failpoint.reset ();
  (* bytes: a 1-byte budget checkpoints after every data commit, so the
     log never holds a replay suffix *)
  let dir = fresh_dir "policy_bytes" in
  let db = Database.create () in
  let dur =
    Durable.open_dir ~db
      ~policy:{ Durable.cp_records = None; cp_bytes = Some 1; cp_seconds = None }
      dir
  in
  Database.declare db "edge" Graph_gen.edge_schema;
  Database.set db "edge" (Graph_gen.chain 3);
  for i = 10 to 14 do
    Database.update_batch db [ ("edge", [ pair i (i + 1) ], []) ];
    Alcotest.(check int)
      (Fmt.str "wal empty after commit %d" i)
      0 (wal_bytes dir)
  done;
  let v = Database.version db in
  Durable.close dur;
  let r = Durable.open_dir dir in
  Alcotest.(check int) "recovered from checkpoint alone" 0 (Durable.replayed r);
  Alcotest.(check int) "exact version" v (Database.version (Durable.db r));
  Durable.close r;
  (* a roomy byte budget does not checkpoint prematurely: the records
     accumulate in the log *)
  let dir = fresh_dir "policy_roomy" in
  let db = Database.create () in
  let dur =
    Durable.open_dir ~db
      ~policy:
        {
          Durable.cp_records = None;
          cp_bytes = Some (1024 * 1024);
          cp_seconds = None;
        }
      dir
  in
  Database.declare db "edge" Graph_gen.edge_schema;
  Database.set db "edge" (Graph_gen.chain 3);
  for i = 10 to 14 do
    Database.update_batch db [ ("edge", [ pair i (i + 1) ], []) ]
  done;
  Alcotest.(check bool) "records accumulate" true (wal_bytes dir > 0);
  Durable.close dur;
  (* time: a commit past the deadline checkpoints (measured at the
     commit, no timer thread) *)
  let dir = fresh_dir "policy_time" in
  let db = Database.create () in
  let dur =
    Durable.open_dir ~db
      ~policy:
        { Durable.cp_records = None; cp_bytes = None; cp_seconds = Some 0.05 }
      dir
  in
  Database.declare db "edge" Graph_gen.edge_schema;
  Database.set db "edge" (Graph_gen.chain 3);
  Unix.sleepf 0.06;
  Database.update_batch db [ ("edge", [ pair 10 11 ], []) ];
  Alcotest.(check int) "deadline commit checkpointed" 0 (wal_bytes dir);
  Durable.close dur

(* ------------------------------------------------------------------ *)
(* Group commit: several commits buffered into one [Wal.append_batch]
   fsync.  The non-crash test proves the batched records replay; the
   [wal.group] crash test proves the recovery contract — the kill fires
   between the frames of the shared flush, so recovery lands on every
   fully-acknowledged group plus a prefix of the crashed one, at a
   per-commit boundary either way. *)

let test_group_commit_durability () =
  Guard.Failpoint.reset ();
  let dir = fresh_dir "group_ok" in
  let db = Database.create () in
  let dur = Durable.open_dir ~db dir in
  Database.declare db "edge" Graph_gen.edge_schema;
  Database.set db "edge" (Graph_gen.chain 3);
  let v = Database.version db in
  let lsn0 = Durable.durable_lsn dur in
  Durable.group dur (fun () ->
      Database.update_batch db [ ("edge", [ pair 7 8 ], []) ];
      Database.update_batch db [ ("edge", [ pair 8 9 ], []) ];
      Database.update_batch db [ ("edge", [], [ pair 7 8 ]) ]);
  Alcotest.(check int)
    "three versions in one group" (v + 3) (Database.version db);
  Alcotest.(check bool)
    "lsn advanced by the shared flush" true
    (Durable.durable_lsn dur >= lsn0 + 3);
  (* an empty group flushes nothing *)
  Durable.group dur (fun () -> ());
  Alcotest.(check int) "empty group" (v + 3) (Database.version db);
  (* a nested group joins the outer one *)
  Durable.group dur (fun () ->
      Durable.group dur (fun () ->
          Database.update_batch db [ ("edge", [ pair 6 7 ], []) ]));
  let vf = Database.version db in
  let extent = Database.get db "edge" in
  Alcotest.(check int) "nested group committed" (v + 4) vf;
  (* abandon the handle: recovery must replay the batched records from
     the log, not pick them up from a close-time checkpoint *)
  let r = Durable.open_dir dir in
  Alcotest.(check int) "exact version" vf (Database.version (Durable.db r));
  Alcotest.check rel_testable "extent" extent
    (Database.get (Durable.db r) "edge");
  Durable.close r

let crash_group seed () =
  Guard.Failpoint.reset ();
  Fun.protect ~finally:Guard.Failpoint.reset @@ fun () ->
  let rng = Rng.create seed in
  let init =
    Graph_gen.random_graph ~seed:(Rng.int rng 1_000_000) ~nodes
      ~edges:(2 * nodes)
  in
  let dir = fresh_dir "group_crash" in
  let ddb = Database.create () in
  let dur = Durable.open_dir ~db:ddb ~policy:every_25 dir in
  ignore (setup ddb init);
  let v0 = Database.version ddb in
  (* [wal.group] ticks between the frames of one batched flush, so the
     kill lands inside some multi-commit group's shared fsync *)
  let n = 1 + Rng.int rng 150 in
  Guard.Failpoint.arm "wal.group" n;
  let cur = ref init in
  let committed = ref [] in (* every batch, in commit order *)
  let acked = ref 0 in (* batches inside fully-flushed groups *)
  let crashed_group = ref 0 in
  (try
     for _ = 1 to 120 do
       let size = 1 + Rng.int rng 4 in
       let group =
         List.init size (fun _ ->
             let adds, dels, next = gen_batch rng !cur in
             cur := next;
             (adds, dels))
       in
       committed := !committed @ group;
       match
         Durable.group dur (fun () ->
             List.iter
               (fun (adds, dels) ->
                 Database.update_batch ddb [ ("edge", adds, dels) ])
               group)
       with
       | () -> acked := !acked + size
       | exception Guard.Exhausted (Guard.Fault_injected "wal.group", _) ->
         crashed_group := size;
         raise Exit
     done;
     Alcotest.failf "wal.group armed at %d never fired (seed %d)" n seed
   with Exit -> ());
  (* recover the directory into a fresh process image: every
     acknowledged group must be there in full; of the crashed group only
     a prefix of complete records may survive *)
  let r = Durable.open_dir dir in
  let recovered = Database.version (Durable.db r) - v0 in
  let total = List.length !committed in
  if recovered < !acked || recovered > total then
    Alcotest.failf
      "seed %d: recovered %d batches outside [acked %d, acked + crashed \
       group %d]"
      seed recovered !acked total;
  (* replaying exactly [recovered] batches on a fresh oracle reproduces
     the recovered state — recovery stopped at a commit boundary *)
  let odb = Database.create () in
  ignore (setup odb init);
  List.iteri
    (fun i (adds, dels) ->
      if i < recovered then Database.update_batch odb [ ("edge", adds, dels) ])
    !committed;
  check_same_state ~msg:(Fmt.str "wal.group (seed %d)" seed) odb (Durable.db r);
  Durable.close r

(* ------------------------------------------------------------------ *)
(* PR 5 x PR 7 interplay: a maintained closure view and a pinned BEGIN
   reader on a server recovered from a crash *)

let test_recovered_server_pinned_reader () =
  Guard.Failpoint.reset ();
  Fun.protect ~finally:Guard.Failpoint.reset @@ fun () ->
  let dir = fresh_dir "server" in
  let rng = Rng.create 11 in
  let init =
    Graph_gen.random_graph ~seed:(Rng.int rng 1_000_000) ~nodes
      ~edges:(2 * nodes)
  in
  (* phase 1: durable database with a maintained closure, killed
     mid-append *)
  let ddb = Database.create () in
  let _dur = Durable.open_dir ~db:ddb dir in
  ignore (setup ddb init);
  let cur = ref init in
  for _ = 1 to 5 do
    let adds, dels, next = gen_batch rng !cur in
    Database.update_batch ddb [ ("edge", adds, dels) ];
    cur := next
  done;
  Guard.Failpoint.arm "wal.append" 1;
  let adds, dels, _ = gen_batch rng !cur in
  (match Database.update_batch ddb [ ("edge", adds, dels) ] with
  | () -> Alcotest.fail "armed append did not crash"
  | exception Guard.Exhausted (Guard.Fault_injected "wal.append", _) -> ());
  (* the crashed batch was never acknowledged: [!cur] is the oracle *)
  let tc rel =
    Seminaive.query Oracle.tc_nonlinear
      (Facts.of_relation "edge" rel (Facts.empty ()))
      "path"
  in
  (* phase 2: recover into a serving stack *)
  let srv = Server.open_durable dir in
  let reader = Server.open_session srv in
  let writer = Server.open_session srv in
  let before, v0 = Server.query reader path_range in
  Alcotest.(check bool) "recovered closure" true
    (Facts.TS.equal
       (Relation.fold Facts.TS.add before Facts.TS.empty)
       (tc !cur));
  ignore (Server.execute reader "BEGIN;");
  (* a durable commit lands underneath the pinned reader *)
  let adds2, dels2, next2 = gen_batch rng !cur in
  Server.submit srv (fun () ->
      Database.update_batch (Server.db srv) [ ("edge", adds2, dels2) ]);
  ignore writer;
  let pinned, vp = Server.query reader path_range in
  Alcotest.(check int) "reader stays pinned" v0 vp;
  Alcotest.check rel_testable "pinned view unchanged" before pinned;
  ignore (Server.execute reader "COMMIT;");
  let after, va = Server.query reader path_range in
  Alcotest.(check bool) "commit unpins" true (va > v0);
  Alcotest.(check bool) "maintained closure after recovery" true
    (Facts.TS.equal
       (Relation.fold Facts.TS.add after Facts.TS.empty)
       (tc next2));
  Server.close_session reader;
  Server.close_session writer;
  (* graceful shutdown checkpoints; a reopen replays nothing and still
     serves the maintained view *)
  Server.shutdown srv;
  let r = Durable.open_dir dir in
  Alcotest.(check int) "clean restart" 0 (Durable.replayed r);
  let rview =
    match sorted_views (Durable.db r) with
    | [ _even; _hop; path ] -> path
    | vs -> Alcotest.failf "expected 3 views, got %d" (List.length vs)
  in
  Alcotest.(check bool) "view survives shutdown" true
    (Facts.TS.equal
       (Relation.fold Facts.TS.add (Ivm.value rview) Facts.TS.empty)
       (tc next2));
  Durable.close r

(* ------------------------------------------------------------------ *)

let () =
  let sites =
    [ "wal.append"; "wal.fsync"; "wal.checkpoint"; "wal.truncate"; "wal.group" ]
  in
  (* [wal.group] only ticks inside a batched flush, so its kills run the
     group-commit workload; the other sites share the per-commit one *)
  let case site seed =
    if String.equal site "wal.group" then crash_group seed
    else crash_matrix site seed
  in
  (* The CI crash-matrix axis: DC_FAILPOINT="wal.<site>=<far future>"
     (Guard arms the ambient schedule itself; each crash test resets it
     and arms its own seeded count).  Naming a wal site narrows the
     matrix to that site and promotes it to several seeds. *)
  let env_site =
    match Sys.getenv_opt "DC_FAILPOINT" with
    | None -> None
    | Some spec ->
      String.split_on_char ',' spec
      |> List.filter_map (fun part ->
             match String.index_opt part '=' with
             | Some i -> Some (String.trim (String.sub part 0 i))
             | None -> Some (String.trim part))
      |> List.find_opt (fun s -> List.mem s sites)
  in
  let matrix =
    match env_site with
    | Some site ->
      List.map
        (fun seed ->
          Alcotest.test_case (Fmt.str "%s seed %d" site seed) `Quick
            (case site seed))
        [ 1; 2; 3; 4; 5 ]
    | _ ->
      List.concat_map
        (fun site ->
          List.map
            (fun seed ->
              Alcotest.test_case
                (Fmt.str "%s seed %d" site seed)
                `Quick (case site seed))
            [ 1; 2 ])
        sites
  in
  Alcotest.run "dc_wal"
    [
      ( "codec",
        [
          Alcotest.test_case "frame round-trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "crc32 check value" `Quick test_codec_crc32;
          Alcotest.test_case "crc rejects corruption" `Quick
            test_codec_crc_rejects;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "torn tail truncation" `Quick test_torn_tail;
          Alcotest.test_case "empty deltas stay consecutive" `Quick
            test_empty_delta_versions;
        ] );
      ("crash matrix", matrix);
      ( "statements",
        [
          Alcotest.test_case "multi-row DELETE is one record" `Quick
            test_multi_row_delete_one_record;
          Alcotest.test_case "failed re-MATERIALIZE keeps the view" `Quick
            test_failed_rematerialize_keeps_view;
        ] );
      ( "checkpoint policy",
        [
          Alcotest.test_case "bytes and time criteria" `Quick
            test_checkpoint_policy;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "batched records replay" `Quick
            test_group_commit_durability;
        ] );
      ( "serving",
        [
          Alcotest.test_case "recovered server, pinned reader" `Quick
            test_recovered_server_pinned_reader;
        ] );
    ]
