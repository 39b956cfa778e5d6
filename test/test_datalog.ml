(* Tests for Dc_datalog: bottom-up engines, SLD, stratification, magic
   sets, and the §3.4 translations to/from constructor systems. *)

open Dc_relation
open Dc_datalog
open Syntax

let i n = Value.Int n

let tuple2 a b = Tuple.make2 (i a) (i b)

let edge_facts l =
  Facts.of_list (List.map (fun (a, b) -> ("edge", tuple2 a b)) l)

(* path(X,Y) :- edge(X,Y).  path(X,Z) :- edge(X,Y), path(Y,Z). *)
let tc_program =
  [
    rule (atom "path" [ var "X"; var "Y" ]) [ Pos (atom "edge" [ var "X"; var "Y" ]) ];
    rule
      (atom "path" [ var "X"; var "Z" ])
      [
        Pos (atom "edge" [ var "X"; var "Y" ]);
        Pos (atom "path" [ var "Y"; var "Z" ]);
      ];
  ]

let bin = Schema.make [ ("src", Value.TInt); ("dst", Value.TInt) ]

let closure_of l =
  let rel = Relation.of_pairs bin (List.map (fun (a, b) -> (i a, i b)) l) in
  Algebra.transitive_closure rel

let facts_testable =
  Alcotest.testable
    (fun ppf s -> Facts.TS.iter (Tuple.pp ppf) s)
    Facts.TS.equal

let set_of_relation rel =
  Relation.fold Facts.TS.add rel Facts.TS.empty

let edges_dag = [ (1, 2); (1, 3); (2, 4); (3, 4); (4, 5) ]
let edges_cycle = [ (1, 2); (2, 3); (3, 1); (3, 4) ]

let test_naive_tc () =
  let result = Naive.query tc_program (edge_facts edges_dag) "path" in
  Alcotest.check facts_testable "naive tc"
    (set_of_relation (closure_of edges_dag))
    result

let test_seminaive_tc () =
  List.iter
    (fun edges ->
      let result = Seminaive.query tc_program (edge_facts edges) "path" in
      Alcotest.check facts_testable "seminaive tc"
        (set_of_relation (closure_of edges))
        result)
    [ edges_dag; edges_cycle ]

let test_seminaive_fewer_derivations () =
  let chain = List.init 30 (fun k -> (k, k + 1)) in
  let ns = Naive.fresh_stats () and ss = Seminaive.fresh_stats () in
  ignore (Naive.query ~stats:ns tc_program (edge_facts chain) "path");
  ignore (Seminaive.query ~stats:ss tc_program (edge_facts chain) "path");
  Alcotest.check Alcotest.bool
    (Fmt.str "seminaive derives less (naive %d, seminaive %d)"
       ns.Naive.derivations ss.Seminaive.derivations)
    true
    (ss.Seminaive.derivations * 3 < ns.Naive.derivations)

let test_topdown_tc () =
  let result =
    Topdown.query tc_program (edge_facts edges_dag) "path" 2
  in
  Alcotest.check facts_testable "SLD tc on DAG"
    (set_of_relation (closure_of edges_dag))
    (Facts.TS.of_list result)

let test_topdown_diverges_on_cycle () =
  let budget = { Topdown.max_steps = 50_000; max_depth = 10_000 } in
  match Topdown.query ~budget tc_program (edge_facts edges_cycle) "path" 2 with
  | _ -> Alcotest.fail "expected Budget_exhausted on cyclic data"
  | exception Topdown.Budget_exhausted _ -> ()

let test_safety () =
  let unsafe = rule (atom "p" [ var "X" ]) [ Neg (atom "q" [ var "X" ]) ] in
  (match check_safe [ unsafe ] with
  | _ -> Alcotest.fail "expected Unsafe_rule"
  | exception Unsafe_rule _ -> ());
  Alcotest.check
    Alcotest.(list string)
    "unsafe vars" [ "X" ] (unsafe_vars unsafe)

let test_stratified_negation () =
  (* unreachable(X,Y) :- node(X), node(Y), not path(X,Y). *)
  let program =
    tc_program
    @ [
        rule
          (atom "unreachable" [ var "X"; var "Y" ])
          [
            Pos (atom "node" [ var "X" ]);
            Pos (atom "node" [ var "Y" ]);
            Neg (atom "path" [ var "X"; var "Y" ]);
          ];
      ]
  in
  let edb =
    List.fold_left
      (fun st n -> Facts.add st "node" (Tuple.make1 (i n)))
      (edge_facts [ (1, 2); (2, 3) ])
      [ 1; 2; 3 ]
  in
  let result = Seminaive.query program edb "unreachable" in
  Alcotest.check Alcotest.bool "3 cannot reach 1" true
    (Facts.TS.mem (tuple2 3 1) result);
  Alcotest.check Alcotest.bool "1 reaches 3" false
    (Facts.TS.mem (tuple2 1 3) result);
  (* every node is "unreachable from itself" here (no self loops) *)
  Alcotest.check Alcotest.int "cardinality" (9 - 3) (Facts.TS.cardinal result)

let test_not_stratifiable () =
  let program = [ rule (atom "p" [ var "X" ]) [ Pos (atom "q" [ var "X" ]); Neg (atom "p" [ var "X" ]) ] ] in
  match Stratify.strata program with
  | _ -> Alcotest.fail "expected Not_stratifiable"
  | exception Stratify.Not_stratifiable _ -> ()

let test_strata_order () =
  let program =
    tc_program
    @ [
        rule
          (atom "unreachable" [ var "X"; var "Y" ])
          [
            Pos (atom "node" [ var "X" ]);
            Pos (atom "node" [ var "Y" ]);
            Neg (atom "path" [ var "X"; var "Y" ]);
          ];
      ]
  in
  let layers = Stratify.layers program in
  Alcotest.check Alcotest.int "two layers" 2 (List.length layers);
  Alcotest.check Alcotest.bool "path first" true
    (List.for_all (fun r -> r.head.pred = "path") (List.nth layers 0))

let test_magic_answers () =
  (* reachable from node 1 *)
  let q = atom "path" [ const (i 1); var "Y" ] in
  let full = Seminaive.query tc_program (edge_facts edges_dag) "path" in
  let expected = Facts.TS.filter (fun t -> Value.equal (Tuple.get t 0) (i 1)) full in
  let got = Magic.answer tc_program (edge_facts edges_dag) q in
  Alcotest.check facts_testable "magic = filtered full" expected got

let test_magic_is_selective () =
  (* on a forest of two big chains, querying inside one chain must not
     derive paths of the other chain *)
  let chain_a = List.init 40 (fun k -> (k, k + 1)) in
  let chain_b = List.init 40 (fun k -> (1000 + k, 1001 + k)) in
  let edb = edge_facts (chain_a @ chain_b) in
  let sm = Seminaive.fresh_stats () and sf = Seminaive.fresh_stats () in
  ignore (Seminaive.query ~stats:sf tc_program edb "path");
  let q = atom "path" [ const (i 1020); var "Y" ] in
  ignore (Magic.answer ~stats:sm tc_program edb q);
  Alcotest.check Alcotest.bool
    (Fmt.str "magic derives far less (full %d, magic %d)" sf.Seminaive.derivations
       sm.Seminaive.derivations)
    true
    (sm.Seminaive.derivations * 5 < sf.Seminaive.derivations)

let test_magic_second_arg_bound () =
  (* fb adornment: which nodes reach node 5? *)
  let q = atom "path" [ var "X"; const (i 5) ] in
  let full = Seminaive.query tc_program (edge_facts edges_dag) "path" in
  let expected =
    Facts.TS.filter (fun t -> Value.equal (Tuple.get t 1) (i 5)) full
  in
  let got = Magic.answer tc_program (edge_facts edges_dag) q in
  Alcotest.check facts_testable "fb adornment" expected got

let test_magic_both_bound () =
  let q = atom "path" [ const (i 1); const (i 5) ] in
  let got = Magic.answer tc_program (edge_facts edges_dag) q in
  Alcotest.check Alcotest.int "bb adornment: provable" 1 (Facts.TS.cardinal got);
  let no = Magic.answer tc_program (edge_facts edges_dag) (atom "path" [ const (i 5); const (i 1) ]) in
  Alcotest.check Alcotest.int "bb adornment: unprovable" 0 (Facts.TS.cardinal no)

let test_magic_cyclic () =
  let q = atom "path" [ const (i 1); var "Y" ] in
  let full = Seminaive.query tc_program (edge_facts edges_cycle) "path" in
  let expected = Facts.TS.filter (fun t -> Value.equal (Tuple.get t 0) (i 1)) full in
  let got = Magic.answer tc_program (edge_facts edges_cycle) q in
  Alcotest.check facts_testable "magic on cyclic data" expected got

(* Left-linear closure: the recursive call passes its own binding on, so
   its magic rule would be m_path__bf(X) :- m_path__bf(X) — a rule that
   derives nothing and is not emitted. *)
let test_magic_left_linear () =
  let left =
    [
      rule (atom "path" [ var "X"; var "Y" ]) [ Pos (atom "edge" [ var "X"; var "Y" ]) ];
      rule
        (atom "path" [ var "X"; var "Z" ])
        [
          Pos (atom "path" [ var "X"; var "Y" ]);
          Pos (atom "edge" [ var "Y"; var "Z" ]);
        ];
    ]
  in
  let c = Magic.compile left "path" [ true; false ] in
  Alcotest.(check (list string))
    "no rule whose body is its head" []
    (List.filter_map
       (fun r ->
         if r.body = [ Pos r.head ] then Some (Fmt.str "%a" Syntax.pp_rule r)
         else None)
       (Magic.rules c));
  let q = atom "path" [ const (i 1); var "Y" ] in
  let full = Seminaive.query left (edge_facts edges_cycle) "path" in
  let expected = Facts.TS.filter (fun t -> Value.equal (Tuple.get t 0) (i 1)) full in
  Alcotest.check facts_testable "left-linear magic answers" expected
    (Magic.answer left (edge_facts edges_cycle) q)

(* ------------------------------------------------------------------ *)
(* Translations (§3.4 lemma) *)

let test_constructor_to_datalog () =
  let open Dc_core in
  let db = Database.create () in
  let schema = Constructor.binary_schema Value.TInt in
  Database.declare db "Edge" schema;
  Database.set db "Edge"
    (Relation.of_pairs schema (List.map (fun (a, b) -> (i a, i b)) edges_cycle));
  Database.define_constructor db (Constructor.transitive_closure ~ty:Value.TInt ());
  let app = Dc_calculus.Ast.(Construct (Rel "Edge", "tc", [])) in
  let expected = Database.query db app in
  let ctx = Translate.context (Database.typecheck_env db) in
  let program, query_pred = Translate.of_application ctx app in
  let edb = Translate.edb (Snapshot.get (Database.snapshot db)) program in
  let got = Seminaive.query program edb query_pred in
  Alcotest.check facts_testable "translated tc agrees"
    (set_of_relation expected) got

let test_mutual_constructor_to_datalog () =
  let open Dc_core in
  let db = Database.create () in
  Database.declare db "Infront" (Constructor.infront_schema Value.TStr);
  Database.declare db "Ontop" (Constructor.ontop_schema Value.TStr);
  let p a b = Tuple.make2 (Value.Str a) (Value.Str b) in
  Database.insert_all db "Infront" [ p "lamp" "vase"; p "table" "chair" ];
  Database.insert_all db "Ontop" [ p "vase" "table" ];
  let ahead, above = Constructor.ahead_above () in
  Database.define_constructors db [ ahead; above ];
  let app =
    Dc_calculus.Ast.(Construct (Rel "Infront", "ahead", [ Arg_range (Rel "Ontop") ]))
  in
  let expected = Database.query db app in
  let ctx = Translate.context (Database.typecheck_env db) in
  let program, query_pred = Translate.of_application ctx app in
  let edb = Translate.edb (Snapshot.get (Database.snapshot db)) program in
  let got = Seminaive.query program edb query_pred in
  Alcotest.check facts_testable "translated mutual recursion agrees"
    (set_of_relation expected) got

let test_stratified_constructor_to_datalog () =
  (* a constructor with NOT over a lower-SCC application translates to a
     stratified program and agrees with the fixpoint evaluation *)
  let open Dc_core in
  let schema = Constructor.binary_schema Value.TInt in
  let db = Database.create () in
  Database.declare db "Edge" schema;
  Database.declare db "Pairs" schema;
  Database.set db "Edge"
    (Relation.of_pairs schema (List.map (fun (a, b) -> (i a, i b)) [ (1, 2); (2, 3) ]));
  Database.set db "Pairs"
    (Relation.of_pairs schema
       (List.map (fun (a, b) -> (i a, i b)) [ (1, 3); (3, 1); (2, 2) ]));
  Database.define_constructor db (Constructor.transitive_closure ~ty:Value.TInt ());
  let non_desc =
    {
      Dc_calculus.Defs.con_name = "non_desc";
      con_formal = "Rel";
      con_formal_schema = schema;
      con_params = [];
      con_result = schema;
      con_agg = None;
      con_body =
        Dc_calculus.Ast.
          [
            branch
              [ ("p", Rel "Rel") ]
              ~where:
                (Not
                   (Member
                      ( [ field "p" "src"; field "p" "dst" ],
                        Construct (Rel "Edge", "tc", []) )));
          ];
    }
  in
  Database.define_constructor db non_desc;
  let app = Dc_calculus.Ast.(Construct (Rel "Pairs", "non_desc", [])) in
  let expected = Database.query db app in
  let ctx = Translate.context (Database.typecheck_env db) in
  let program, pred = Translate.of_application ctx app in
  Alcotest.check Alcotest.bool "program contains a negative literal" true
    (List.exists
       (fun r ->
         List.exists
           (function
             | Neg _ -> true
             | Pos _ | Test _ -> false)
           r.body)
       program);
  let edb =
    Facts.of_relation "Edge" (Database.get db "Edge")
      (Facts.of_relation "Pairs" (Database.get db "Pairs") (Facts.empty ()))
  in
  let got = Seminaive.query program edb pred in
  Alcotest.check facts_testable "stratified translation agrees"
    (set_of_relation expected) got

let test_datalog_to_constructors () =
  let open Dc_core in
  let schema_of = function
    | "edge" | "path" -> bin
    | p -> Alcotest.failf "unexpected predicate %s" p
  in
  let defs, bottoms = Translate.to_constructors schema_of tc_program in
  let db = Database.create () in
  Database.declare db "edge" bin;
  Database.set db "edge"
    (Relation.of_pairs bin (List.map (fun (a, b) -> (i a, i b)) edges_dag));
  List.iter (fun (n, s) -> Database.declare db n s) bottoms;
  Database.define_constructors db defs;
  let got =
    Database.query db
      Dc_calculus.Ast.(Construct (Rel "__bottom_path", "path", []))
  in
  Alcotest.check facts_testable "datalog->constructors agrees"
    (set_of_relation (closure_of edges_dag))
    (set_of_relation got)

(* ------------------------------------------------------------------ *)
(* Built-in tests, ground goals, negation as failure, deep strata *)

let test_builtin_comparisons () =
  (* forward(X,Y) :- edge(X,Y), X < Y. *)
  let program =
    [
      rule
        (atom "forward" [ var "X"; var "Y" ])
        [
          Pos (atom "edge" [ var "X"; var "Y" ]);
          Test (Dc_calculus.Ast.Lt, var "X", var "Y");
        ];
    ]
  in
  let result =
    Seminaive.query program (edge_facts [ (1, 2); (3, 2); (2, 2) ]) "forward"
  in
  Alcotest.check facts_testable "X < Y"
    (Facts.TS.singleton (tuple2 1 2))
    result

let test_topdown_ground_goal () =
  let edb = edge_facts edges_dag in
  let yes = Topdown.solve tc_program edb (atom "path" [ const (i 1); const (i 5) ]) in
  Alcotest.check Alcotest.int "provable ground goal" 1 (List.length yes);
  let no = Topdown.solve tc_program edb (atom "path" [ const (i 5); const (i 1) ]) in
  Alcotest.check Alcotest.int "unprovable ground goal" 0 (List.length no)

let test_topdown_negation_as_failure () =
  (* blocked(X,Y) :- edge(X,Y), not good(Y).  good is an EDB predicate. *)
  let program =
    [
      rule
        (atom "blocked" [ var "X"; var "Y" ])
        [ Pos (atom "edge" [ var "X"; var "Y" ]); Neg (atom "good" [ var "Y" ]) ];
    ]
  in
  let edb =
    Facts.add (edge_facts [ (1, 2); (2, 3) ]) "good" (Tuple.make1 (i 2))
  in
  let result = Topdown.query program edb "blocked" 2 in
  Alcotest.check facts_testable "NAF"
    (Facts.TS.singleton (tuple2 2 3))
    (Facts.TS.of_list result)

let test_three_strata () =
  (* path (stratum 0), unreachable (1: not path), isolated (2: sources with
     no reachable target that is not unreachable from everything...) keep it
     simple: doubly_dead(X,Y) :- unreachable(X,Y), not path(Y,X). *)
  let program =
    tc_program
    @ [
        rule
          (atom "unreachable" [ var "X"; var "Y" ])
          [
            Pos (atom "node" [ var "X" ]);
            Pos (atom "node" [ var "Y" ]);
            Neg (atom "path" [ var "X"; var "Y" ]);
          ];
        rule
          (atom "mutually_unreachable" [ var "X"; var "Y" ])
          [
            Pos (atom "unreachable" [ var "X"; var "Y" ]);
            Neg (atom "path" [ var "Y"; var "X" ]);
          ];
      ]
  in
  let edb =
    List.fold_left
      (fun st n -> Facts.add st "node" (Tuple.make1 (i n)))
      (edge_facts [ (1, 2); (3, 4) ])
      [ 1; 2; 3; 4 ]
  in
  let result = Seminaive.query program edb "mutually_unreachable" in
  Alcotest.check Alcotest.bool "1 and 3 mutually unreachable" true
    (Facts.TS.mem (tuple2 1 3) result);
  Alcotest.check Alcotest.bool "1 -> 2 not included" false
    (Facts.TS.mem (tuple2 1 2) result);
  (* naive agrees on the stratified program *)
  let result_naive = Naive.query program edb "mutually_unreachable" in
  Alcotest.check facts_testable "naive = seminaive on strata" result
    result_naive

(* ------------------------------------------------------------------ *)
(* Tabled evaluation *)

let test_tabled_tc () =
  List.iter
    (fun edges ->
      let result = Tabled.query tc_program (edge_facts edges) "path" 2 in
      Alcotest.check facts_testable "tabled tc"
        (set_of_relation (closure_of edges))
        result)
    [ edges_dag; edges_cycle ]

let test_tabled_terminates_on_cycle () =
  (* plain SLD diverges here (see above); tabling terminates *)
  let result = Tabled.query tc_program (edge_facts edges_cycle) "path" 2 in
  Alcotest.check Alcotest.int "complete closure of the cycle component"
    (Facts.TS.cardinal (set_of_relation (closure_of edges_cycle)))
    (Facts.TS.cardinal result)

let test_tabled_goal_directed () =
  (* bound query on a forest: only the relevant chain's subgoals are
     tabled *)
  let chain_a = List.init 30 (fun k -> (k, k + 1)) in
  let chain_b = List.init 30 (fun k -> (1000 + k, 1001 + k)) in
  let edb = edge_facts (chain_a @ chain_b) in
  let stats = Tabled.fresh_stats () in
  let result =
    Tabled.solve ~stats tc_program edb (atom "path" [ const (i 0); var "Y" ])
  in
  Alcotest.check Alcotest.int "answers" 30 (Facts.TS.cardinal result);
  Alcotest.check Alcotest.bool
    (Fmt.str "tables stay near the relevant chain (%d calls)"
       stats.Tabled.calls)
    true
    (stats.Tabled.calls <= 32)

let test_tabled_repeated_vars () =
  (* path(X, X): only cycle members *)
  let result =
    Tabled.solve tc_program (edge_facts edges_cycle)
      (atom "path" [ var "X"; var "X" ])
  in
  Alcotest.check facts_testable "self-reachable nodes"
    (Facts.TS.of_list [ tuple2 1 1; tuple2 2 2; tuple2 3 3 ])
    result

let prop_tabled_agrees =
  QCheck.Test.make ~name:"tabled = seminaive" ~count:60
    QCheck.(
      list_of_size Gen.(int_bound 25)
        (pair (QCheck.int_bound 8) (QCheck.int_bound 8)))
    (fun edges ->
      let edb = edge_facts edges in
      Facts.TS.equal
        (Tabled.query tc_program edb "path" 2)
        (Seminaive.query tc_program edb "path"))

(* Every access path of [Facts.lookup] against a linear filter of the
   store's own contents: keys on leading columns (in column order or
   permuted), on every column (membership), on other columns (hash
   index) and on none; stores that own their index cache, stores that
   lost it to a child (branched) and frozen stores; with the path's index
   warm (prewarmed on an ancestor, then grown and shrunk along the chain)
   or cold.  Sorted lists, not sets, so a duplicated row fails too. *)
let prop_facts_lookup =
  QCheck.Test.make ~name:"Facts.lookup = filter" ~count:500 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rint n = Random.State.int rng n in
      let tuple () = Tuple.of_list (List.init 3 (fun _ -> i (rint 4))) in
      let tuples k = Facts.TS.of_list (List.init k (fun _ -> tuple ())) in
      let positions =
        List.map snd
          (List.sort compare
             (List.filter_map
                (fun p ->
                  if Random.State.bool rng then Some (rint 100, p) else None)
                [ 0; 1; 2 ]))
      in
      let base = Facts.add_set (Facts.empty ()) "p" (tuples (rint 30)) in
      if Random.State.bool rng then Facts.prewarm base "p" positions;
      let tip =
        Facts.remove_set
          (Facts.add_set base "p" (tuples (rint 10)))
          "p" (tuples (rint 10))
      in
      (* a tuple [tip] lacks (at most 40 of the 64 are present) *)
      let rec absent () =
        let t = tuple () in
        if Facts.mem tip "p" t then absent () else t
      in
      let extra = absent () in
      let store =
        match rint 3 with
        | 0 -> tip
        | 1 ->
          (* a child takes the cache, and [extra] enters its indexes:
             [tip] is now a branched store that must not see it *)
          ignore (Facts.add tip "p" extra);
          tip
        | _ -> Facts.freeze tip
      in
      let key =
        let ts = Facts.TS.elements (Facts.find store "p") in
        match rint 3 with
        | 0 when ts <> [] ->
          Tuple.project (List.nth ts (rint (List.length ts))) positions
        | 1 -> Tuple.project extra positions
        | _ -> Tuple.of_list (List.map (fun _ -> i (rint 4)) positions)
      in
      let expected =
        Facts.TS.elements
          (Facts.TS.filter
             (fun t -> Tuple.equal (Tuple.project t positions) key)
             (Facts.find store "p"))
      in
      let sorted l = List.sort Tuple.compare l in
      let got = sorted (Facts.lookup store "p" positions key) in
      List.equal Tuple.equal expected got
      || QCheck.Test.fail_reportf "seed %d positions [%s]: %d rows, expected %d"
           seed
           (String.concat ";" (List.map string_of_int positions))
           (List.length got) (List.length expected))

(* Property: on random graphs, all four evaluation routes agree. *)
let arb_edges =
  QCheck.(
    list_of_size Gen.(int_bound 25)
      (pair (QCheck.int_bound 8) (QCheck.int_bound 8)))

let prop_engines_agree =
  QCheck.Test.make ~name:"naive = seminaive = algebra tc" ~count:60 arb_edges
    (fun edges ->
      let edb = edge_facts edges in
      let n = Naive.query tc_program edb "path" in
      let s = Seminaive.query tc_program edb "path" in
      let a = set_of_relation (closure_of edges) in
      Facts.TS.equal n s && Facts.TS.equal s a)

let prop_magic_agrees =
  QCheck.Test.make ~name:"magic = filtered seminaive" ~count:60
    QCheck.(pair arb_edges (QCheck.int_bound 8))
    (fun (edges, start) ->
      QCheck.assume (edges <> []);
      let edb = edge_facts edges in
      let full = Seminaive.query tc_program edb "path" in
      let expected =
        Facts.TS.filter (fun t -> Value.equal (Tuple.get t 0) (i start)) full
      in
      let got = Magic.answer tc_program edb (atom "path" [ const (i start); var "Y" ]) in
      Facts.TS.equal expected got)

let prop_translation_agrees =
  QCheck.Test.make ~name:"constructor tc = datalog tc (lemma 3.4)" ~count:40
    arb_edges (fun edges ->
      let open Dc_core in
      let schema = Constructor.binary_schema Value.TInt in
      let db = Database.create () in
      Database.declare db "Edge" schema;
      Database.set db "Edge"
        (Relation.of_pairs schema (List.map (fun (a, b) -> (i a, i b)) edges));
      Database.define_constructor db
        (Constructor.transitive_closure ~ty:Value.TInt ());
      let app = Dc_calculus.Ast.(Construct (Rel "Edge", "tc", [])) in
      let expected = set_of_relation (Database.query db app) in
      let ctx = Translate.context (Database.typecheck_env db) in
      let program, query_pred = Translate.of_application ctx app in
      let edb = Translate.edb (Snapshot.get (Database.snapshot db)) program in
      Facts.TS.equal expected (Seminaive.query program edb query_pred))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dc_datalog"
    [
      ( "bottom-up",
        [
          Alcotest.test_case "naive tc" `Quick test_naive_tc;
          Alcotest.test_case "seminaive tc" `Quick test_seminaive_tc;
          Alcotest.test_case "seminaive cheaper" `Quick
            test_seminaive_fewer_derivations;
        ] );
      ( "top-down",
        [
          Alcotest.test_case "SLD on DAG" `Quick test_topdown_tc;
          Alcotest.test_case "SLD diverges on cycle" `Quick
            test_topdown_diverges_on_cycle;
          Alcotest.test_case "ground goals" `Quick test_topdown_ground_goal;
          Alcotest.test_case "negation as failure" `Quick
            test_topdown_negation_as_failure;
        ] );
      ( "builtins+strata",
        [
          Alcotest.test_case "comparisons" `Quick test_builtin_comparisons;
          Alcotest.test_case "three strata" `Quick test_three_strata;
        ] );
      ( "tabled",
        [
          Alcotest.test_case "tc" `Quick test_tabled_tc;
          Alcotest.test_case "terminates on cycle" `Quick
            test_tabled_terminates_on_cycle;
          Alcotest.test_case "goal-directed" `Quick test_tabled_goal_directed;
          Alcotest.test_case "repeated variables" `Quick
            test_tabled_repeated_vars;
        ] );
      ( "safety+strata",
        [
          Alcotest.test_case "safety check" `Quick test_safety;
          Alcotest.test_case "stratified negation" `Quick
            test_stratified_negation;
          Alcotest.test_case "odd cycle rejected" `Quick test_not_stratifiable;
          Alcotest.test_case "layer order" `Quick test_strata_order;
        ] );
      ( "magic",
        [
          Alcotest.test_case "answers" `Quick test_magic_answers;
          Alcotest.test_case "selectivity" `Quick test_magic_is_selective;
          Alcotest.test_case "second argument bound" `Quick
            test_magic_second_arg_bound;
          Alcotest.test_case "both arguments bound" `Quick
            test_magic_both_bound;
          Alcotest.test_case "cyclic data" `Quick test_magic_cyclic;
          Alcotest.test_case "left-linear: no self-rule" `Quick
            test_magic_left_linear;
        ] );
      ( "translate",
        [
          Alcotest.test_case "constructor -> datalog" `Quick
            test_constructor_to_datalog;
          Alcotest.test_case "mutual recursion -> datalog" `Quick
            test_mutual_constructor_to_datalog;
          Alcotest.test_case "stratified negation -> datalog" `Quick
            test_stratified_constructor_to_datalog;
          Alcotest.test_case "datalog -> constructors" `Quick
            test_datalog_to_constructors;
        ] );
      ( "properties",
        qcheck
          [
            prop_engines_agree; prop_magic_agrees; prop_translation_agrees;
            prop_facts_lookup; prop_tabled_agrees;
          ] );
    ]
