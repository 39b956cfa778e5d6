(* Tests for Dc_par and the parallel constructor fixpoint it powers.

   Covers the domain pool itself (shard ordering, nesting, exception
   protocol, lazy spawn/shutdown), the relation hash partitioner
   (qcheck: disjoint, covering, deterministic for P in {1,2,3,8}), the
   domain-safety satellites (one registry counter hammered from four
   domains; a shared guard's atomic row budget across four domains),
   abort atomicity of a parallel fixpoint round, and end-to-end
   equivalence: the sharded constructor fixpoint at P = 1, 2 and 4 must
   agree with the sequential engines on seeded workloads.  Everything
   runs with the sequential cutoff floored to 1 and an explicit domain
   count, so the parallel code paths execute regardless of how many
   physical cores the test machine has. *)

open Dc_relation
open Dc_calculus
open Dc_core
open Dc_datalog
module Guard = Dc_guard.Guard
module Obs = Dc_obs.Obs
module Par = Dc_par.Par
module Graph_gen = Dc_workload.Graph_gen
module Bom_gen = Dc_workload.Bom_gen
module TS = Facts.TS

let rel_testable = Alcotest.testable Relation.pp Relation.equal

(* ------------------------------------------------------------------ *)
(* The pool *)

let test_map_ordering () =
  let r = Par.map ~shards:8 (fun i -> i * i) in
  Alcotest.(check (array int))
    "shard results in shard order"
    (Array.init 8 (fun i -> i * i))
    r;
  (* a single shard never touches the pool *)
  Alcotest.(check (array int)) "one shard inline" [| 42 |]
    (Par.map ~shards:1 (fun _ -> 42))

let test_nested_map_inline () =
  (* an inner map on a worker domain degrades to inline sequential
     execution; an inner map on the main domain queues behind the outer
     jobs — neither may deadlock *)
  let r =
    Par.map ~shards:3 (fun i ->
        Array.fold_left ( + ) 0 (Par.map ~shards:3 (fun j -> (10 * i) + j)))
  in
  Alcotest.(check (array int)) "nested totals" [| 3; 33; 63 |] r

let test_pool_reuse_and_shutdown () =
  ignore (Par.map ~shards:4 (fun i -> i));
  Alcotest.(check bool) "workers spawned" true (Par.pool_size () >= 3);
  let before = Par.pool_size () in
  ignore (Par.map ~shards:4 (fun i -> i));
  Alcotest.(check int) "workers reused, not respawned" before (Par.pool_size ());
  Par.shutdown ();
  Alcotest.(check int) "shutdown joins everyone" 0 (Par.pool_size ());
  (* the pool must come back lazily after a shutdown *)
  Alcotest.(check (array int))
    "map after shutdown respawns" [| 0; 2; 4 |]
    (Par.map ~shards:3 (fun i -> 2 * i))

let test_exception_protocol () =
  let ran = Array.make 4 false in
  let first_errors = Atomic.make 0 in
  (match
     Par.map ~shards:4
       ~on_first_error:(fun _ -> Atomic.incr first_errors)
       (fun i ->
         ran.(i) <- true;
         if i = 2 then failwith "shard 2 exploded";
         i)
   with
  | (_ : int array) -> Alcotest.fail "expected the shard failure to re-raise"
  | exception Failure msg ->
    Alcotest.(check string) "original exception" "shard 2 exploded" msg);
  Alcotest.(check (array bool))
    "barrier held: every shard still ran"
    [| true; true; true; true |]
    ran;
  Alcotest.(check int) "on_first_error fired exactly once" 1
    (Atomic.get first_errors)

let test_prefer_picks_real_error () =
  match
    Par.map ~shards:4
      ~prefer:(function Failure _ -> true | _ -> false)
      (fun i ->
        if i = 1 then raise Not_found;
        if i = 3 then failwith "the real one";
        i)
  with
  | (_ : int array) -> Alcotest.fail "expected a re-raise"
  | exception Failure msg ->
    Alcotest.(check string) "preferred over lower-shard Not_found"
      "the real one" msg
  | exception Not_found -> Alcotest.fail "prefer should have skipped Not_found"

let test_with_domains_scoping () =
  let outer = Par.domains () in
  let inner = Par.with_domains 5 Par.domains in
  Alcotest.(check int) "scoped value" 5 inner;
  Alcotest.(check int) "restored" outer (Par.domains ());
  (match Par.with_domains 3 (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  Alcotest.(check int) "restored on exception" outer (Par.domains ())

(* ------------------------------------------------------------------ *)
(* Hash partitioner (qcheck): disjoint, covering, deterministic *)

let shard_counts = [ 1; 2; 3; 8 ]

let tuples_of_pairs ps =
  List.map (fun (a, b) -> Tuple.make2 (Value.Int a) (Value.Int b)) ps

let prop_partition_relation =
  QCheck.Test.make
    ~name:"Relation.partition_hash: disjoint+covering+deterministic" ~count:200
    QCheck.(list (pair small_int small_int))
    (fun pairs ->
      let schema = Constructor.binary_schema Value.TInt in
      let r =
        List.fold_left
          (fun acc t -> Relation.add_unchecked t acc)
          (Relation.empty schema) (tuples_of_pairs pairs)
      in
      List.for_all
        (fun p ->
          let shards = Relation.partition_hash ~shards:p r in
          let again = Relation.partition_hash ~shards:p r in
          Array.length shards = max 1 p
          && Array.for_all2 Relation.equal shards again
          && Relation.equal r
               (Array.fold_left Relation.union (Relation.empty schema) shards)
          && Array.for_all
               (fun s ->
                 Relation.for_all
                   (fun t ->
                     Array.for_all
                       (fun s' -> s == s' || not (Relation.mem t s'))
                       shards)
                   s)
               shards)
        shard_counts)

(* ------------------------------------------------------------------ *)
(* Satellite: the metrics registry under concurrent increments *)

let with_metrics f =
  let saved = Obs.on () in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled saved) f

let test_obs_counter_hammer () =
  with_metrics @@ fun () ->
  let c = Obs.Counter.make "test_par_hammer_total" in
  let per_domain = 25_000 in
  ignore
    (Par.map ~shards:4 (fun _ ->
         (* find_or_create from every domain too: the registry lookup
            itself must be mutex-guarded *)
         let c' = Obs.Counter.make "test_par_hammer_total" in
         for _ = 1 to per_domain do
           Obs.Counter.inc c'
         done));
  Alcotest.(check int)
    "4 domains x 25k increments, none lost" (4 * per_domain)
    (Obs.Counter.value c)

(* ------------------------------------------------------------------ *)
(* Satellite: one shared guard budget across domains *)

let test_guard_budget_across_domains () =
  let lim = 10_000 in
  let g = Guard.create ~rows:lim () in
  (* shards only count and report their trip: Alcotest's formatter is
     not domain-safe, so every assertion runs after the barrier *)
  let results =
    Par.map ~shards:4 (fun _ ->
        let mine = ref 0 in
        let trip =
          try
            for _ = 1 to lim do
              Guard.tick g (lazy "par.test");
              incr mine
            done;
            None
          with Guard.Exhausted (Guard.Rows_exhausted n, _) -> Some n
        in
        (!mine, trip))
  in
  Array.iter
    (fun (_, trip) ->
      Option.iter
        (Alcotest.(check int) "trip names the configured limit" lim)
        trip)
    results;
  (* the budget is one atomic counter: exactly [lim] ticks succeed
     globally, however they interleave; every later tick raises in
     whichever domain issues it *)
  Alcotest.(check int)
    "successful ticks across all domains = the limit" lim
    (Array.fold_left (fun n (mine, _) -> n + mine) 0 results);
  Alcotest.(check bool) "guard row count reached the limit" true
    (Guard.rows g >= lim)

let test_cancel_reaches_other_domains () =
  let g = Guard.create () in
  let results =
    Par.map ~shards:4 (fun i ->
        if i = 0 then begin
          Guard.cancel g;
          `Cancelled_by_me
        end
        else begin
          (* spin until the cancellation flag propagates *)
          match
            while true do
              Guard.check g ~site:"par.test"
            done
          with
          | () -> `Unreachable
          | exception Guard.Exhausted (Guard.Cancelled, _) -> `Saw_cancel
        end)
  in
  Array.iteri
    (fun i r ->
      let expected = if i = 0 then `Cancelled_by_me else `Saw_cancel in
      Alcotest.(check bool) (Fmt.str "shard %d" i) true (r = expected))
    results

(* ------------------------------------------------------------------ *)
(* Parallel fixpoint: equivalence and abort atomicity *)

let pair_str a b = Tuple.make2 (Value.Str a) (Value.Str b)
let edge_schema = Constructor.binary_schema Value.TStr

let chain_rel n =
  Relation.of_list edge_schema
    (List.init n (fun i -> pair_str (Fmt.str "n%d" i) (Fmt.str "n%d" (i + 1))))

let chain_tc n =
  let tuples = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n do
      tuples := pair_str (Fmt.str "n%d" i) (Fmt.str "n%d" j) :: !tuples
    done
  done;
  Relation.of_list edge_schema !tuples

let db_with_chain ?linear n =
  let db = Database.create () in
  Database.declare db "Edge" edge_schema;
  Database.set db "Edge" (chain_rel n);
  Database.define_constructor db (Constructor.transitive_closure ?linear ());
  db

let tc_range = Ast.(Construct (Rel "Edge", "tc", []))

(* force the sharded path onto these tiny workloads *)
let forced_parallel p f = Par.with_domains p (fun () -> Par.with_seq_cutoff 1 f)

(* Sharded rounds compute the same extents with the same counted work
   as P = 1: the main domain's novelty-table visit of the shard outputs
   dedups across shards exactly as the sequential visit does. *)
let test_fixpoint_parallel_equivalence () =
  let db = db_with_chain 12 in
  let expected = chain_tc 12 in
  List.iter
    (fun p ->
      Alcotest.check rel_testable
        (Fmt.str "core fixpoint at P=%d" p)
        expected
        (forced_parallel p (fun () -> Database.query db tc_range)))
    [ 1; 2; 4 ];
  let random_db =
    let db = Database.create () in
    Database.declare db "Edge" Graph_gen.edge_schema;
    Database.set db "Edge" (Graph_gen.random_graph ~seed:5 ~nodes:60 ~edges:150);
    Database.define_constructor db (Constructor.transitive_closure ());
    db
  in
  List.iter
    (fun (name, db, range) ->
      let run p =
        let r = forced_parallel p (fun () -> Database.query db range) in
        (r, Oracle.fixpoint_work (Option.get (Database.last_stats db)))
      in
      let r1, w1 = run 1 in
      List.iter
        (fun p ->
          let r, w = run p in
          Alcotest.check rel_testable (Fmt.str "%s extent at P=%d" name p) r1 r;
          Alcotest.check Alcotest.string
            (Fmt.str "%s stats at P=%d" name p)
            w1 w)
        [ 2; 4 ])
    [
      ("scene", Oracle.scene_db 32, Oracle.scene_query);
      ("random digraph", random_db, tc_range);
    ]

let with_failpoints f =
  Guard.Failpoint.reset ();
  Fun.protect ~finally:Guard.Failpoint.reset f

(* A parallel round aborted by the guard — wherever the trip lands, main
   domain or worker — must roll the shared index cache back and leave a
   clean re-run unaffected.  Only a hash index on the recursive relation
   is advanced in place, and keys on tc's leading column are range scans
   that leave no cache entry, so the non-linear tc (which also probes tc
   on position 1) runs beside the paper's right-linear one. *)
let parallel_abort_atomicity linear =
  let db = db_with_chain ~linear 10 in
  let env = Database.eval_env db in
  let expected =
    forced_parallel 4 (fun () -> Eval.eval_range env tc_range)
  in
  Alcotest.check rel_testable "parallel warm run correct" (chain_tc 10)
    expected;
  let edges = Database.get db "Edge" in
  let check_atomic name run =
    if linear = `Non then
      Alcotest.(check bool)
        (Fmt.str "%s: cache indexes the recursive relation" name)
        true
        (List.exists
           (fun (rel, _, _, _) -> not (Relation.equal rel edges))
           (Index_cache.snapshot env.Eval.icache));
    let snap = Index_cache.snapshot env.Eval.icache in
    let edges_before = Database.get db "Edge" in
    (match forced_parallel 4 run with
    | (_ : Relation.t) -> Alcotest.failf "%s: expected Guard.Exhausted" name
    | exception Guard.Exhausted _ -> ());
    Alcotest.(check bool)
      (Fmt.str "%s: icache rolled back" name)
      true
      (Index_cache.snapshot_equal snap (Index_cache.snapshot env.Eval.icache));
    Alcotest.(check bool)
      (Fmt.str "%s: stored relation untouched" name)
      true
      (edges_before == Database.get db "Edge");
    Alcotest.check rel_testable
      (Fmt.str "%s: clean parallel re-run unaffected" name)
      expected
      (forced_parallel 4 (fun () -> Eval.eval_range env tc_range))
  in
  (* a row budget small enough that a mid-round worker evaluation trips *)
  check_atomic "rows limit" (fun () ->
      Eval.eval_range (Eval.with_guard env (Guard.create ~rows:15 ())) tc_range);
  (* deterministic fault injection: failpoints fire on domain 0 only *)
  with_failpoints (fun () ->
      Guard.Failpoint.arm "fixpoint.round" 2;
      check_atomic "failpoint fixpoint.round" (fun () ->
          Eval.eval_range env tc_range));
  with_failpoints (fun () ->
      Guard.Failpoint.arm "eval.branch" 3;
      check_atomic "failpoint eval.branch" (fun () ->
          Eval.eval_range env tc_range))

let test_parallel_abort_atomicity () =
  List.iter parallel_abort_atomicity [ `Right; `Left; `Non ]

(* ------------------------------------------------------------------ *)
(* Six-way oracle at forced parallelism *)

let unary_schema = Schema.make [ ("x", Value.TStr) ]

let case_schema = function
  | "start" | "even" | "odd" -> unary_schema
  | "contains" -> Bom_gen.contains_schema
  | _ -> Graph_gen.edge_schema

(* The sixth evaluator: the case's rules translated to constructor
   definitions (§3.4) and evaluated by the constructor fixpoint, sharded
   over four domains. *)
let sharded_constructor_answer (c : Oracle.case) =
  let db = Database.create () in
  Syntax.SS.iter
    (fun p ->
      let schema = case_schema p in
      Database.declare db p schema;
      Database.set db p (Facts.to_relation schema c.case_edb p))
    (Syntax.edb_preds c.case_program);
  let defs, bottoms = Translate.to_constructors case_schema c.case_program in
  List.iter (fun (n, s) -> Database.declare db n s) bottoms;
  Database.define_constructors db defs;
  let range =
    Ast.Construct (Ast.Rel ("__bottom_" ^ c.case_pred), c.case_pred, [])
  in
  forced_parallel 4 (fun () ->
      Relation.fold TS.add (Database.query db range) TS.empty)

(* [Oracle.check_seed] asserts naive = seminaive = direct IR = magic =
   tabled; the sharded constructor fixpoint must agree with them too.  A
   dedicated seed range keeps these cases disjoint from test_datalog's. *)
let test_oracle_seeds () =
  for seed = 4000 to 4049 do
    Oracle.check_seed seed;
    let c = Oracle.case_of_seed seed in
    Alcotest.check Oracle.facts_testable
      (Fmt.str "seed %d: %s: sharded constructor fixpoint(P=4) = seminaive"
         seed c.case_name)
      (Seminaive.query c.case_program c.case_edb c.case_pred)
      (sharded_constructor_answer c)
  done

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dc_par"
    [
      ( "pool",
        [
          Alcotest.test_case "map ordering" `Quick test_map_ordering;
          Alcotest.test_case "nested map" `Quick test_nested_map_inline;
          Alcotest.test_case "reuse and shutdown" `Quick
            test_pool_reuse_and_shutdown;
          Alcotest.test_case "exception protocol" `Quick
            test_exception_protocol;
          Alcotest.test_case "prefer real error" `Quick
            test_prefer_picks_real_error;
          Alcotest.test_case "with_domains scoping" `Quick
            test_with_domains_scoping;
        ] );
      ("partitioning", qcheck [ prop_partition_relation ]);
      ( "domain safety",
        [
          Alcotest.test_case "obs counter hammered from 4 domains" `Quick
            test_obs_counter_hammer;
          Alcotest.test_case "guard budget shared across domains" `Quick
            test_guard_budget_across_domains;
          Alcotest.test_case "cancellation reaches other domains" `Quick
            test_cancel_reaches_other_domains;
        ] );
      ( "parallel fixpoint",
        [
          Alcotest.test_case "equivalence P=1,2,4" `Quick
            test_fixpoint_parallel_equivalence;
          Alcotest.test_case "abort atomicity" `Quick
            test_parallel_abort_atomicity;
        ] );
      ( "oracle",
        [ Alcotest.test_case "6-way agreement, seeds 4000-4049" `Slow
            test_oracle_seeds ] );
    ]
