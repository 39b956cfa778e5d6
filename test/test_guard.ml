(* Tests for Dc_guard: the unified resource governor, the per-engine limit
   plumbing, deterministic fault injection, and — the PR's core guarantee —
   atomicity of aborted constructor expansions: a fixpoint stopped by any
   limit or injected fault leaves the database and the evaluation
   environment's index cache observationally unchanged. *)

open Dc_relation
open Dc_calculus
open Dc_core
module Guard = Dc_guard.Guard

let s v = Value.Str v
let pair a b = Tuple.make2 (s a) (s b)

let rel_testable = Alcotest.testable Relation.pp Relation.equal

let edge_schema = Constructor.binary_schema Value.TStr

let chain_rel n =
  Relation.of_list edge_schema
    (List.init n (fun i -> pair (Fmt.str "n%d" i) (Fmt.str "n%d" (i + 1))))

let db_with_chain ?limits ?linear n =
  let db = Database.create ?limits () in
  Database.declare db "Edge" edge_schema;
  Database.set db "Edge" (chain_rel n);
  Database.define_constructor db (Constructor.transitive_closure ?linear ());
  db

let chain_tc n =
  let tuples = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n do
      tuples := pair (Fmt.str "n%d" i) (Fmt.str "n%d" j) :: !tuples
    done
  done;
  Relation.of_list edge_schema !tuples

let tc_range = Ast.(Construct (Rel "Edge", "tc", []))

(* Run a thunk expected to trip; return the (reason, progress) pair. *)
let expect_exhausted name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Guard.Exhausted" name
  | exception Guard.Exhausted (reason, progress) -> (reason, progress)

(* ------------------------------------------------------------------ *)
(* Limit kinds through Database.query (declarative SET LIMIT path) *)

let test_rows_limit () =
  let db = db_with_chain ~limits:(Guard.limits ~rows:20 ()) 8 in
  let reason, progress =
    expect_exhausted "rows" (fun () -> Database.query db tc_range)
  in
  (match reason with
  | Guard.Rows_exhausted 20 -> ()
  | r -> Alcotest.failf "expected Rows_exhausted 20, got %a" Guard.pp_reason r);
  Alcotest.check Alcotest.bool "tripping operator labeled" true
    (progress.Guard.pg_operator <> None);
  Alcotest.check Alcotest.bool "row count includes tripping row" true
    (progress.Guard.pg_rows > 20)

let test_rounds_limit () =
  let db = db_with_chain ~limits:(Guard.limits ~rounds:2 ()) 8 in
  let reason, progress =
    expect_exhausted "rounds" (fun () -> Database.query db tc_range)
  in
  (match reason with
  | Guard.Rounds_exhausted 2 -> ()
  | r -> Alcotest.failf "expected Rounds_exhausted 2, got %a" Guard.pp_reason r);
  Alcotest.check
    Alcotest.(option string)
    "tripping site" (Some "fixpoint.round") progress.Guard.pg_site

let test_millis_limit () =
  let db = db_with_chain ~limits:(Guard.limits ~millis:0 ()) 8 in
  let reason, _ =
    expect_exhausted "millis" (fun () -> Database.query db tc_range)
  in
  match reason with
  | Guard.Deadline_exceeded 0 -> ()
  | r -> Alcotest.failf "expected Deadline_exceeded 0, got %a" Guard.pp_reason r

let test_cancellation () =
  let db = db_with_chain 8 in
  let g = Guard.create () in
  Guard.cancel g;
  let reason, _ =
    expect_exhausted "cancel" (fun () -> Database.query ~guard:g db tc_range)
  in
  (match reason with
  | Guard.Cancelled -> ()
  | r -> Alcotest.failf "expected Cancelled, got %a" Guard.pp_reason r);
  (* cancelling the shared none guard is a no-op *)
  Guard.cancel Guard.none;
  Alcotest.check rel_testable "none guard unaffected" (chain_tc 8)
    (Database.query ~guard:Guard.none db tc_range)

let test_set_limits_round_trip () =
  (* limits are per-evaluation: tripping once poisons nothing, and
     SET LIMIT NONE (no_limits) restores full evaluation *)
  let db = db_with_chain 6 in
  Database.set_limits db (Guard.limits ~rounds:1 ());
  ignore (expect_exhausted "limited" (fun () -> Database.query db tc_range));
  ignore (expect_exhausted "limited again" (fun () -> Database.query db tc_range));
  Database.set_limits db Guard.no_limits;
  Alcotest.check rel_testable "cleared limits evaluate fully" (chain_tc 6)
    (Database.query db tc_range)

(* ------------------------------------------------------------------ *)
(* Datalog engines *)

open Dc_datalog

let i n = Value.Int n
let tuple2 a b = Tuple.make2 (i a) (i b)

let edge_facts l =
  Facts.of_list (List.map (fun (a, b) -> ("edge", tuple2 a b)) l)

let tc_program =
  Syntax.
    [
      rule (atom "path" [ var "X"; var "Y" ])
        [ Pos (atom "edge" [ var "X"; var "Y" ]) ];
      rule
        (atom "path" [ var "X"; var "Z" ])
        [
          Pos (atom "edge" [ var "X"; var "Y" ]);
          Pos (atom "path" [ var "Y"; var "Z" ]);
        ];
    ]

let long_chain = List.init 40 (fun k -> (k, k + 1))

let check_rounds name reason =
  match reason with
  | Guard.Rounds_exhausted _ -> ()
  | r -> Alcotest.failf "%s: expected Rounds_exhausted, got %a" name Guard.pp_reason r

let test_datalog_round_limits () =
  let edb = edge_facts long_chain in
  let trip name f =
    check_rounds name
      (fst (expect_exhausted name (fun () -> f (Guard.create ~rounds:2 ()))))
  in
  trip "naive" (fun g -> Naive.query ~guard:g tc_program edb "path");
  trip "seminaive" (fun g -> Seminaive.query ~guard:g tc_program edb "path");
  trip "magic" (fun g ->
      Magic.answer ~guard:g tc_program edb
        Syntax.(atom "path" [ Const (i 0); var "Y" ]));
  trip "tabled" (fun g -> Tabled.query ~guard:g tc_program edb "path" 2)

let test_datalog_row_limits () =
  let edb = edge_facts long_chain in
  let trip name f =
    match fst (expect_exhausted name (fun () -> f (Guard.create ~rows:25 ()))) with
    | Guard.Rows_exhausted 25 -> ()
    | r -> Alcotest.failf "%s: expected Rows_exhausted, got %a" name Guard.pp_reason r
  in
  trip "seminaive" (fun g -> Seminaive.query ~guard:g tc_program edb "path");
  trip "tabled" (fun g -> Tabled.query ~guard:g tc_program edb "path" 2);
  trip "topdown" (fun g -> Topdown.query ~guard:g tc_program edb "path" 2)

let test_tabled_max_rounds_configurable () =
  (* the once hard-coded fuse is now an ordinary round budget *)
  let edb = edge_facts long_chain in
  check_rounds "tabled max_rounds"
    (fst
       (expect_exhausted "tabled max_rounds" (fun () ->
            Tabled.query ~max_rounds:2 tc_program edb "path" 2)));
  Alcotest.check Alcotest.int "generous max_rounds completes"
    (List.length long_chain * (List.length long_chain + 1) / 2)
    (Facts.TS.cardinal
       (Tabled.query ~max_rounds:Tabled.default_max_rounds tc_program edb
          "path" 2))

let test_topdown_budget_compat () =
  (* the legacy step budget still raises Budget_exhausted, while an
     external guard trips with the structured error *)
  let edb = edge_facts [ (1, 2); (2, 3); (3, 1) ] in
  let contains msg needle =
    let nh = String.length msg and nn = String.length needle in
    let rec probe i = i + nn <= nh && (String.sub msg i nn = needle || probe (i + 1)) in
    probe 0
  in
  (match
     Topdown.query
       ~budget:{ Topdown.max_steps = 1_000; max_depth = 1_000_000 }
       tc_program edb "path" 2
   with
  | _ -> Alcotest.fail "expected Budget_exhausted (steps)"
  | exception Topdown.Budget_exhausted msg ->
    Alcotest.check Alcotest.bool "message names resolution steps" true
      (contains msg "resolution steps"));
  match
    Topdown.query
      ~budget:{ Topdown.max_steps = 1_000_000; max_depth = 10 }
      tc_program edb "path" 2
  with
  | _ -> Alcotest.fail "expected Budget_exhausted (depth)"
  | exception Topdown.Budget_exhausted msg ->
    Alcotest.check Alcotest.bool "message names depth" true
      (contains msg "depth")

(* ------------------------------------------------------------------ *)
(* Structured error taxonomy (satellite: no ad-hoc failwith/invalid_arg) *)

let test_error_taxonomy () =
  let edb = edge_facts [ (1, 2) ] in
  (* tabled: negation is structurally unsupported *)
  let negated =
    Syntax.
      [
        rule
          (atom "p" [ var "X"; var "Y" ])
          [
            Pos (atom "edge" [ var "X"; var "Y" ]);
            Neg (atom "edge" [ var "Y"; var "X" ]);
          ];
      ]
  in
  (match Tabled.query negated edb "p" 2 with
  | _ -> Alcotest.fail "expected Engine.Error Unsupported"
  | exception Engine.Error (Engine.Unsupported, _) -> ());
  (* topdown: a comparison reached with an unbound side *)
  let nonground =
    Syntax.
      [
        rule
          (atom "q" [ var "X"; var "Y" ])
          [
            Pos (atom "edge" [ var "X"; var "Y" ]);
            Test (Dc_calculus.Ast.Lt, var "X", var "Z");
          ];
      ]
  in
  match Topdown.query nonground edb "q" 2 with
  | _ -> Alcotest.fail "expected Engine.Error Unsafe_rule"
  | exception Engine.Error (Engine.Unsafe_rule, _) -> ()

(* ------------------------------------------------------------------ *)
(* Failpoints *)

(* Reset on entry too: CI runs the suite with an ambient DC_FAILPOINT
   schedule armed, which these tests must not inherit. *)
let with_failpoints f =
  Guard.Failpoint.reset ();
  Fun.protect ~finally:Guard.Failpoint.reset f

let test_failpoint_api () =
  with_failpoints @@ fun () ->
  let db = db_with_chain 6 in
  Guard.Failpoint.arm "fixpoint.round" 2;
  let reason, progress =
    expect_exhausted "failpoint" (fun () -> Database.query db tc_range)
  in
  (match reason with
  | Guard.Fault_injected "fixpoint.round" -> ()
  | r -> Alcotest.failf "expected Fault_injected, got %a" Guard.pp_reason r);
  Alcotest.check
    Alcotest.(option string)
    "site recorded" (Some "fixpoint.round") progress.Guard.pg_site;
  (* one-shot: the site disarmed itself when it fired *)
  Alcotest.check Alcotest.bool "disarmed after firing" false
    !Guard.Failpoint.armed;
  Alcotest.check rel_testable "subsequent evaluation is unaffected"
    (chain_tc 6) (Database.query db tc_range)

let test_failpoint_install () =
  with_failpoints @@ fun () ->
  Guard.Failpoint.install "fixpoint.commit=3,exec.row";
  let pending = List.sort compare (Guard.Failpoint.pending ()) in
  Alcotest.check
    Alcotest.(list (pair string int))
    "parsed schedule"
    [ ("exec.row", 1); ("fixpoint.commit", 3) ]
    pending;
  Guard.Failpoint.reset ();
  Alcotest.check Alcotest.bool "reset disarms" false !Guard.Failpoint.armed;
  (match Guard.Failpoint.install "=oops" with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match Guard.Failpoint.install "exec.row=zero" with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Bulk ticks: [Guard.ticks g label k] must trip where [k] calls of
   [Guard.tick] would, with the same reason, operator and row count. *)

let label = lazy "closure tc"

(* Feed [rows] rows to [g], in the [blocks] sizes ([None]: one tick per
   row); the reason and progress of the trip, if one happens. *)
let feed g blocks rows =
  match
    match blocks with
    | None ->
      for _ = 1 to rows do
        Guard.tick g label
      done
    | Some sizes ->
      let rec go left sizes =
        if left > 0 then
          match sizes with
          | k :: rest ->
            let k = min k left in
            Guard.ticks g label k;
            go (left - k) (rest @ [ k ])
          | [] -> assert false
      in
      go rows sizes
  with
  | () -> None
  | exception Guard.Exhausted (reason, p) ->
    Some (reason, p.Guard.pg_rows, p.Guard.pg_operator)

let trip_testable =
  Alcotest.(
    option
      (triple (testable Guard.pp_reason ( = )) int (option string)))

(* A row budget, a cancel and a passed deadline trip a run of blocks at
   the row a tick per row trips at. *)
let test_ticks_limits () =
  with_failpoints @@ fun () ->
  let cancelled () =
    let g = Guard.create () in
    Guard.cancel g;
    g
  in
  let late () =
    let g = Guard.create ~millis:0 () in
    Unix.sleepf 0.002;
    g
  in
  List.iter
    (fun (what, guard, rows) ->
      let per_row = feed (guard ()) None rows in
      Alcotest.(check bool) (what ^ ": trips") true (per_row <> None);
      List.iter
        (fun sizes ->
          Alcotest.check trip_testable
            (Fmt.str "%s, blocks %a" what Fmt.(list ~sep:comma int) sizes)
            per_row
            (feed (guard ()) (Some sizes) rows))
        [ [ 1 ]; [ 7 ]; [ 40 ]; [ 100; 3 ]; [ 255 ]; [ 256 ]; [ 257 ]; [ 1000 ] ])
    [
      ("row budget 20", (fun () -> Guard.create ~rows:20 ()), 1000);
      ("row budget 300", (fun () -> Guard.create ~rows:300 ()), 1000);
      ("cancel", cancelled, 1000);
      ("deadline", late, 1000);
      ("deadline after the budget", (fun () -> Guard.create ~millis:0 ~rows:100 ()), 1000);
    ];
  (* within its limits a run of blocks counts every row, and never trips *)
  let g = Guard.create ~rows:1000 () in
  Alcotest.check trip_testable "no trip" None (feed g (Some [ 300; 1; 44 ]) 1000);
  Alcotest.(check int) "rows counted" 1000 (Guard.rows g);
  Guard.ticks Guard.none label 5_000;
  Alcotest.(check int) "none counts nothing" 0 (Guard.rows Guard.none)

(* An armed [exec.row=N] fires at the N-th row, whether the rows are
   ticked one at a time or in blocks. *)
let test_ticks_failpoint () =
  List.iter
    (fun n ->
      List.iter
        (fun blocks ->
          with_failpoints @@ fun () ->
          Guard.Failpoint.arm "exec.row" n;
          Alcotest.check trip_testable
            (Fmt.str "exec.row=%d, blocks %a" n
               Fmt.(option ~none:(any "of one row, ticked") (list ~sep:comma int))
               blocks)
            (Some (Guard.Fault_injected "exec.row", n - 1, None))
            (feed (Guard.create ()) blocks 500))
        [ None; Some [ 1 ]; Some [ 16 ]; Some [ 300 ]; Some [ 7; 90 ] ])
    [ 1; 2; 17; 256; 300; 500 ]

(* ------------------------------------------------------------------ *)
(* Atomicity: an aborted expansion leaves the database and the index
   cache exactly as they were. *)

let all_sites =
  [ "exec.row"; "eval.branch"; "fixpoint.round"; "fixpoint.commit" ]

(* The rollbacks that matter are of in-place [Index_cache.advance]s, and
   only a hash index on the recursive relation is ever advanced.  Keys
   on a relation's leading column are range scans that leave no cache
   entry, so the paper's right-linear tc (probing tc on position 0)
   advances nothing; the non-linear one also probes tc on position 1. *)
let linearities = [ ("right", `Right); ("left", `Left); ("non", `Non) ]

(* Does the warm cache hold an index on the recursive relation (any
   entry whose extent is not the base's)?  Required of the non-linear tc
   on a chain of two or more edges. *)
let recursive_entry_ok db env linear =
  let edges = Database.get db "Edge" in
  linear <> `Non || Relation.cardinal edges < 2
  || List.exists
       (fun (rel, _, _, _) -> not (Relation.equal rel edges))
       (Index_cache.snapshot env.Eval.icache)

(* Evaluate [tc_range] in [env]; if it trips, assert the icache and the
   stored relations are observationally unchanged, then check a clean
   re-run still produces [expected]. *)
let check_atomic name db env ~linear ~expected run =
  Alcotest.check Alcotest.bool
    (Fmt.str "%s: cache indexes the recursive relation" name)
    true
    (recursive_entry_ok db env linear);
  let snap = Index_cache.snapshot env.Eval.icache in
  let edges_before = Database.get db "Edge" in
  (match run () with
  | (_ : Relation.t) -> Alcotest.failf "%s: expected Guard.Exhausted" name
  | exception Guard.Exhausted _ -> ());
  Alcotest.check Alcotest.bool
    (Fmt.str "%s: icache rolled back" name)
    true
    (Index_cache.snapshot_equal snap (Index_cache.snapshot env.Eval.icache));
  Alcotest.check Alcotest.bool
    (Fmt.str "%s: stored relation untouched" name)
    true
    (edges_before == Database.get db "Edge");
  Alcotest.check rel_testable
    (Fmt.str "%s: clean re-run unaffected" name)
    expected
    (Eval.eval_range env tc_range)

let test_atomic_abort_failpoints () =
  with_failpoints @@ fun () ->
  List.iter
    (fun (lin, linear) ->
      let db = db_with_chain ~linear 8 in
      let env = Database.eval_env db in
      (* warm the cache: the interesting rollbacks are of in-place advances *)
      let expected = Eval.eval_range env tc_range in
      Alcotest.check rel_testable "warm run correct" (chain_tc 8) expected;
      List.iter
        (fun site ->
          Guard.Failpoint.reset ();
          Guard.Failpoint.arm site 3;
          check_atomic
            (Fmt.str "%s tc, failpoint %s" lin site)
            db env ~linear ~expected
            (fun () -> Eval.eval_range env tc_range))
        all_sites)
    linearities

(* A Diffable application's value is merged when something reads it, or
   at a round's commit once its pending deltas reach the merged value's
   size (the size rule), which advances the cached indexes on it in
   place.  The non-linear tc on a cycle of 8 doubles every round (8, 16,
   32, 64 tuples), so every commit from round 2 on merges by the size
   rule, extending the index that the next round's full occurrence
   probes.  A trip at a later commit, or at one of the last rows of the
   run, must roll those advances back. *)
let test_atomic_abort_after_size_merge () =
  with_failpoints @@ fun () ->
  let db = Database.create () in
  Database.declare db "Edge" edge_schema;
  Database.set db "Edge"
    (Relation.of_list edge_schema
       (List.init 8 (fun i ->
            pair (Fmt.str "n%d" i) (Fmt.str "n%d" ((i + 1) mod 8)))));
  Database.define_constructor db (Constructor.transitive_closure ~linear:`Non ());
  let env = Database.eval_env db in
  let expected = Eval.eval_range env tc_range in
  Alcotest.check Alcotest.int "every pair is reachable" 64
    (Relation.cardinal expected);
  (* the rows a warm run emits: the schedule's remaining count tells *)
  Guard.Failpoint.arm "exec.row" max_int;
  ignore (Eval.eval_range env tc_range);
  let rows = max_int - List.assoc "exec.row" (Guard.Failpoint.pending ()) in
  List.iter
    (fun (site, hits) ->
      Guard.Failpoint.reset ();
      Guard.Failpoint.arm site hits;
      check_atomic
        (Fmt.str "non tc on a cycle, failpoint %s=%d" site hits)
        db env ~linear:`Non ~expected
        (fun () -> Eval.eval_range env tc_range))
    [
      ("fixpoint.commit", 3);
      ("fixpoint.commit", 4);
      ("fixpoint.commit", 5);
      ("exec.row", rows - 20);
      ("exec.row", rows);
    ]

let test_atomic_abort_limits () =
  List.iter
    (fun (lin, linear) ->
      let db = db_with_chain ~linear 8 in
      let env = Database.eval_env db in
      let expected = Eval.eval_range env tc_range in
      List.iter
        (fun (name, g) ->
          check_atomic (Fmt.str "%s tc, %s" lin name) db env ~linear ~expected
            (fun () -> Eval.eval_range (Eval.with_guard env (g ())) tc_range))
        [
          ("rows limit", fun () -> Guard.create ~rows:15 ());
          ("rounds limit", fun () -> Guard.create ~rounds:2 ());
          ("deadline", fun () -> Guard.create ~millis:0 ());
          ("cancellation",
           fun () ->
             let g = Guard.create () in
             Guard.cancel g;
             g);
        ])
    linearities

(* The qcheck form: any failpoint site, any hit count, any chain length —
   if the evaluation trips, state must be untouched and a clean re-run
   must still agree; if the schedule never fires the run just succeeds. *)
let prop_atomic_abort =
  QCheck.Test.make ~name:"aborted expansion is atomic" ~count:120
    QCheck.(
      quad (int_range 1 10)
        (oneofl all_sites)
        (int_range 1 60)
        (oneofl (List.map snd linearities)))
    (fun (n, site, hits, linear) ->
      with_failpoints @@ fun () ->
      let db = db_with_chain ~linear n in
      let env = Database.eval_env db in
      let expected = Eval.eval_range env tc_range in
      recursive_entry_ok db env linear
      &&
      let snap = Index_cache.snapshot env.Eval.icache in
      Guard.Failpoint.arm site hits;
      let tripped =
        match Eval.eval_range env tc_range with
        | (_ : Relation.t) -> false
        | exception Guard.Exhausted (Guard.Fault_injected _, _) -> true
      in
      Guard.Failpoint.reset ();
      let state_ok =
        (not tripped)
        || Index_cache.snapshot_equal snap
             (Index_cache.snapshot env.Eval.icache)
      in
      state_ok && Relation.equal expected (Eval.eval_range env tc_range))

let prop_limit_abort_atomic =
  QCheck.Test.make ~name:"limit-tripped expansion is atomic" ~count:120
    QCheck.(
      triple (int_range 2 10)
        (pair bool (int_range 1 40))
        (oneofl (List.map snd linearities)))
    (fun (n, (use_rows, budget), linear) ->
      let db = db_with_chain ~linear n in
      let env = Database.eval_env db in
      let expected = Eval.eval_range env tc_range in
      recursive_entry_ok db env linear
      &&
      let snap = Index_cache.snapshot env.Eval.icache in
      let g =
        if use_rows then Guard.create ~rows:budget ()
        else Guard.create ~rounds:budget ()
      in
      let tripped =
        match Eval.eval_range (Eval.with_guard env g) tc_range with
        | (_ : Relation.t) -> false
        | exception Guard.Exhausted _ -> true
      in
      let state_ok =
        (not tripped)
        || Index_cache.snapshot_equal snap
             (Index_cache.snapshot env.Eval.icache)
      in
      state_ok && Relation.equal expected (Eval.eval_range env tc_range))

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dc_guard"
    [
      ( "limits",
        [
          Alcotest.test_case "rows" `Quick test_rows_limit;
          Alcotest.test_case "rounds" `Quick test_rounds_limit;
          Alcotest.test_case "millis" `Quick test_millis_limit;
          Alcotest.test_case "cancellation" `Quick test_cancellation;
          Alcotest.test_case "set_limits round trip" `Quick
            test_set_limits_round_trip;
        ] );
      ( "engines",
        [
          Alcotest.test_case "datalog round limits" `Quick
            test_datalog_round_limits;
          Alcotest.test_case "datalog row limits" `Quick
            test_datalog_row_limits;
          Alcotest.test_case "tabled max_rounds" `Quick
            test_tabled_max_rounds_configurable;
          Alcotest.test_case "topdown budget compat" `Quick
            test_topdown_budget_compat;
          Alcotest.test_case "error taxonomy" `Quick test_error_taxonomy;
        ] );
      ( "failpoints",
        [
          Alcotest.test_case "arm / fire / disarm" `Quick test_failpoint_api;
          Alcotest.test_case "install schedules" `Quick test_failpoint_install;
        ] );
      ( "bulk ticks",
        [
          Alcotest.test_case "limits trip at a tick's row" `Quick test_ticks_limits;
          Alcotest.test_case "exec.row fires at the N-th row" `Quick test_ticks_failpoint;
        ] );
      ( "atomicity",
        Alcotest.test_case "failpoint aborts" `Quick
          test_atomic_abort_failpoints
        :: Alcotest.test_case "limit aborts" `Quick test_atomic_abort_limits
        :: Alcotest.test_case "aborts after a size-rule merge" `Quick
             test_atomic_abort_after_size_merge
        :: qcheck [ prop_atomic_abort; prop_limit_abort_atomic ] );
    ]
