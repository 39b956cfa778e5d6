(* End-to-end integration tests: the same workloads driven through every
   layer of the system — surface programs, the OCaml API, the planner, the
   Horn-clause engines, and the translations — must agree. *)

open Dc_relation
open Dc_calculus
open Dc_core

let s v = Value.Str v
let i n = Value.Int n
let pair a b = Tuple.make2 (s a) (s b)

let rel_testable = Alcotest.testable Relation.pp Relation.equal

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop k =
    k + nn <= nh && (String.sub haystack k nn = needle || loop (k + 1))
  in
  nn = 0 || loop 0

(* ------------------------------------------------------------------ *)
(* Surface program vs API: the BOM explosion built both ways *)

let bom_surface =
  {|TYPE part = STRING;
    TYPE containsrel = RELATION assembly, component, qty
      OF RECORD assembly, component: part; qty: INTEGER END;
    VAR Contains: containsrel;
    CONSTRUCTOR explode FOR Rel: containsrel (): containsrel;
    BEGIN EACH r IN Rel: TRUE,
          <d.assembly, u.component, d.qty * u.qty> OF
            EACH d IN Rel, EACH u IN Rel{explode}:
              d.component = u.assembly
    END explode;
    INSERT Contains VALUES
      ("bike", "wheel", 2), ("wheel", "spoke", 32), ("wheel", "hub", 1),
      ("hub", "bolt", 2);
    QUERY Contains{explode};|}

let test_bom_surface_vs_api () =
  let db_surface, out = Dc_lang.Elaborate.run_string bom_surface in
  Alcotest.check Alcotest.bool "spokes per bike derived" true
    (contains out "64");
  let surface_result =
    Database.query db_surface Ast.(Construct (Rel "Contains", "explode", []))
  in
  (* same data through the API builders *)
  let db = Database.create () in
  Database.declare db "Contains" Dc_workload.Bom_gen.contains_schema;
  Database.insert_all db "Contains"
    [
      Tuple.of_list [ s "bike"; s "wheel"; i 2 ];
      Tuple.of_list [ s "wheel"; s "spoke"; i 32 ];
      Tuple.of_list [ s "wheel"; s "hub"; i 1 ];
      Tuple.of_list [ s "hub"; s "bolt"; i 2 ];
    ];
  Database.define_constructor db (Dc_workload.Bom_gen.explode_constructor ());
  let api_result =
    Database.query db Ast.(Construct (Rel "Contains", "explode", []))
  in
  Alcotest.check rel_testable "surface = API" api_result surface_result;
  Alcotest.check Alcotest.bool "bike needs 64 spokes" true
    (Relation.mem (Tuple.of_list [ s "bike"; s "spoke"; i 64 ]) api_result);
  Alcotest.check Alcotest.bool "bike needs 4 bolts" true
    (Relation.mem (Tuple.of_list [ s "bike"; s "bolt"; i 4 ]) api_result)

(* ------------------------------------------------------------------ *)
(* Same-generation through five evaluation routes *)

let test_same_generation_five_ways () =
  let up, flat, down = Dc_workload.Graph_gen.same_generation_tree 4 in
  let edge = Dc_workload.Graph_gen.edge_schema in
  (* route 1: constructor fixpoint *)
  let db = Database.create () in
  List.iter2
    (fun n r ->
      Database.declare db n edge;
      Database.set db n r)
    [ "Up"; "Flat"; "Down" ] [ up; flat; down ];
  Database.define_constructor db (Constructor.same_generation ());
  let app =
    Ast.(
      Construct
        ( Rel "Up",
          "same_generation",
          [ Arg_range (Rel "Flat"); Arg_range (Rel "Down") ] ))
  in
  let via_constructor = Database.query db app in
  (* route 2/3: translated Horn program, naive + semi-naive *)
  let ctx = Dc_datalog.Translate.context (Database.typecheck_env db) in
  let program, pred = Dc_datalog.Translate.of_application ctx app in
  let edb =
    List.fold_left2
      (fun edb n r -> Dc_datalog.Facts.of_relation n r edb)
      (Dc_datalog.Facts.empty ())
      [ "Up"; "Flat"; "Down" ] [ up; flat; down ]
  in
  let via_naive = Dc_datalog.Naive.query program edb pred in
  let via_semi = Dc_datalog.Seminaive.query program edb pred in
  (* route 4: top-down SLD (the tree is acyclic, so it terminates) *)
  let via_sld =
    Dc_datalog.Facts.TS.of_list (Dc_datalog.Topdown.query program edb pred 2)
  in
  (* route 5: magic sets with the first argument bound to a leaf *)
  let leaf = Dc_workload.Graph_gen.node 7 in
  let via_magic =
    Dc_datalog.Magic.answer program edb
      (Dc_datalog.Syntax.atom pred
         [ Dc_datalog.Syntax.const leaf; Dc_datalog.Syntax.var "Y" ])
  in
  let as_set rel = Relation.fold Dc_datalog.Facts.TS.add rel Dc_datalog.Facts.TS.empty in
  let reference = as_set via_constructor in
  Alcotest.check Alcotest.bool "naive agrees" true
    (Dc_datalog.Facts.TS.equal reference via_naive);
  Alcotest.check Alcotest.bool "semi-naive agrees" true
    (Dc_datalog.Facts.TS.equal reference via_semi);
  Alcotest.check Alcotest.bool "SLD agrees" true
    (Dc_datalog.Facts.TS.equal reference via_sld);
  let expected_magic =
    Dc_datalog.Facts.TS.filter
      (fun t -> Value.equal (Tuple.get t 0) leaf)
      reference
  in
  Alcotest.check Alcotest.bool "magic agrees on the bound query" true
    (Dc_datalog.Facts.TS.equal expected_magic via_magic);
  (* sanity: descendants of the flat pair (1, 2) at equal depth are same
     generation: 7 (under 1) and 11 (under 2) *)
  Alcotest.check Alcotest.bool "7 sg 11" true
    (Dc_datalog.Facts.TS.mem
       (Tuple.make2 (Dc_workload.Graph_gen.node 7) (Dc_workload.Graph_gen.node 11))
       reference)

(* ------------------------------------------------------------------ *)
(* Datalog -> constructors -> datalog roundtrip *)

let test_roundtrip () =
  let bin = Schema.make [ ("src", Value.TInt); ("dst", Value.TInt) ] in
  let open Dc_datalog.Syntax in
  let program =
    [
      rule (atom "path" [ var "X"; var "Y" ]) [ Pos (atom "edge" [ var "X"; var "Y" ]) ];
      rule
        (atom "path" [ var "X"; var "Z" ])
        [
          Pos (atom "edge" [ var "X"; var "Y" ]);
          Pos (atom "path" [ var "Y"; var "Z" ]);
        ];
    ]
  in
  let edges = [ (1, 2); (2, 3); (3, 1); (3, 4) ] in
  let edge_rel = Relation.of_pairs bin (List.map (fun (a, b) -> (i a, i b)) edges) in
  let reference =
    Dc_datalog.Seminaive.query program
      (Dc_datalog.Facts.of_relation "edge" edge_rel (Dc_datalog.Facts.empty ()))
      "path"
  in
  (* datalog -> constructors *)
  let schema_of = function
    | "edge" | "path" -> bin
    | p -> Alcotest.failf "unexpected pred %s" p
  in
  let defs, bottoms = Dc_datalog.Translate.to_constructors schema_of program in
  let db = Database.create () in
  Database.declare db "edge" bin;
  Database.set db "edge" edge_rel;
  List.iter (fun (n, s) -> Database.declare db n s) bottoms;
  Database.define_constructors db defs;
  let app = Ast.(Construct (Rel "__bottom_path", "path", [])) in
  let via_constructors = Database.query db app in
  Alcotest.check Alcotest.bool "datalog -> constructors" true
    (Dc_datalog.Facts.TS.equal reference
       (Relation.fold Dc_datalog.Facts.TS.add via_constructors
          Dc_datalog.Facts.TS.empty));
  (* ... and back: constructors -> datalog *)
  let ctx = Dc_datalog.Translate.context (Database.typecheck_env db) in
  let program2, pred2 = Dc_datalog.Translate.of_application ctx app in
  let edb2 =
    Dc_datalog.Translate.edb (Snapshot.get (Database.snapshot db)) program2
  in
  let back = Dc_datalog.Seminaive.query program2 edb2 pred2 in
  Alcotest.check Alcotest.bool "roundtrip" true
    (Dc_datalog.Facts.TS.equal reference back)

(* ------------------------------------------------------------------ *)
(* EXPLAIN output through the surface, on every method *)

let test_explain_methods () =
  let _, out =
    Dc_lang.Elaborate.run_string
      ({|TYPE e = RELATION src, dst OF RECORD src, dst: STRING END;
        VAR Edge: e;
        CONSTRUCTOR tc FOR Rel: e (): e;
        BEGIN EACH r IN Rel: TRUE,
              <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel{tc}: f.dst = b.src
        END tc;
        CONSTRUCTOR hop2 FOR Rel: e (): e;
        BEGIN EACH r IN Rel: TRUE,
              <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel: f.dst = b.src
        END hop2;
        INSERT Edge VALUES ("a", "b"), ("b", "c");|}
      ^ Oracle.even_paths_source
      ^ {|EXPLAIN Edge{tc};
        EXPLAIN {EACH r IN Edge{tc}: r.src = "a"};
        EXPLAIN Edge{even};
        EXPLAIN {EACH r IN Edge{even}: r.src = "a"};
        EXPLAIN {EACH r IN Edge{hop2}: r.src = "a"};|})
  in
  Alcotest.check Alcotest.bool "closure operator" true
    (contains out "method: closure operator");
  Alcotest.check Alcotest.bool "direct fixpoint" true
    (contains out "direct fixpoint");
  Alcotest.check Alcotest.bool "magic" true (contains out "magic");
  Alcotest.check Alcotest.bool "pushed" true (contains out "pushed")

(* ------------------------------------------------------------------ *)
(* Materialized view driven by surface-program data *)

let test_materialize_over_surface_db () =
  let db, _ =
    Dc_lang.Elaborate.run_string
      {|TYPE e = RELATION src, dst OF RECORD src, dst: STRING END;
        VAR Edge: e;
        CONSTRUCTOR tc FOR Rel: e (): e;
        BEGIN EACH r IN Rel: TRUE,
              <f.src, b.dst> OF EACH f IN Rel{tc}, EACH b IN Rel: f.dst = b.src
        END tc;
        INSERT Edge VALUES ("a", "b"), ("b", "c");|}
  in
  let view = Dc_ivm.Ivm.materialize db ~constructor:"tc" ~base:"Edge" ~args:[] in
  Alcotest.check Alcotest.int "initial" 3 (Dc_ivm.Ivm.cardinal view);
  Database.insert db "Edge" (pair "c" "d");
  (* the closure of a-b-c-d, written out: the view serves Database.query
     itself, so that is no independent oracle *)
  Alcotest.check rel_testable "maintained under surface data"
    (Relation.of_list
       (Relation.schema (Database.get db "Edge"))
       [
         pair "a" "b"; pair "b" "c"; pair "c" "d"; pair "a" "c"; pair "b" "d";
         pair "a" "d";
       ])
    (Dc_ivm.Ivm.value view)

(* ------------------------------------------------------------------ *)
(* Random constructor systems: generate random positive (possibly
   mutually recursive, possibly non-linear) Horn programs, convert them to
   constructor systems, and check that the fixpoint engines (both
   strategies) agree with the bottom-up Datalog engines on every IDB
   predicate. *)

let bin = Schema.make [ ("src", Value.TInt); ("dst", Value.TInt) ]

let arb_program =
  let open QCheck in
  let open Dc_datalog.Syntax in
  let idb_names = [ "p0"; "p1"; "p2" ] in
  let pred_name = Gen.oneofl ("e" :: idb_names) in
  let rule_gen =
    let open Gen in
    let* head = oneofl idb_names in
    let* body_len = int_range 1 2 in
    if body_len = 1 then
      let* b = pred_name in
      return (rule (atom head [ var "X"; var "Z" ]) [ Pos (atom b [ var "X"; var "Z" ]) ])
    else
      let* b1 = pred_name in
      let* b2 = pred_name in
      return
        (rule
           (atom head [ var "X"; var "Z" ])
           [
             Pos (atom b1 [ var "X"; var "Y" ]);
             Pos (atom b2 [ var "Y"; var "Z" ]);
           ])
  in
  let gen =
    Gen.(
      pair
        (list_size (int_range 1 6) rule_gen)
        (list_size (int_range 0 12) (pair (int_bound 4) (int_bound 4))))
  in
  make gen ~print:(fun (program, edges) ->
      Fmt.str "%a@.edges: %a" pp_program program
        Fmt.(Dump.list (Dump.pair int int))
        edges)

let prop_random_systems_agree =
  QCheck.Test.make ~name:"random systems: constructors = datalog" ~count:80
    arb_program (fun (program, edges) ->
      let open Dc_datalog in
      (* deduplicate rules (duplicate rules are harmless but slow) *)
      let program = List.sort_uniq compare program in
      let heads = Syntax.idb_preds program in
      let schema_of _ = bin in
      let defs, bottoms = Translate.to_constructors schema_of program in
      let edge_rel =
        Relation.of_pairs bin
          (List.sort_uniq compare (List.map (fun (a, b) -> (Value.Int a, Value.Int b)) edges))
      in
      let edb = Facts.of_relation "e" edge_rel (Facts.empty ()) in
      (* every IDB pred used but not defined acts as an empty EDB pred *)
      let mentioned =
        List.concat_map Syntax.body_preds program
        |> List.sort_uniq String.compare
      in
      let db strategy =
        let db = Database.create ~strategy () in
        Database.declare db "e" bin;
        Database.set db "e" edge_rel;
        List.iter
          (fun p ->
            if (not (Syntax.SS.mem p heads)) && p <> "e" then
              Database.declare db p bin)
          mentioned;
        List.iter (fun (n, s) -> Database.declare db n s) bottoms;
        Database.define_constructors db defs;
        db
      in
      let db_semi = db Fixpoint.Seminaive and db_naive = db Fixpoint.Naive in
      Syntax.SS.for_all
        (fun p ->
          let reference = Seminaive.query program edb p in
          let via strategy_db =
            Relation.fold Facts.TS.add
              (Database.query strategy_db
                 Ast.(Construct (Rel ("__bottom_" ^ p), p, [])))
              Facts.TS.empty
          in
          Facts.TS.equal reference (via db_semi)
          && Facts.TS.equal reference (via db_naive))
        heads)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "BOM: surface = API" `Quick test_bom_surface_vs_api;
          Alcotest.test_case "same-generation, five routes" `Quick
            test_same_generation_five_ways;
          Alcotest.test_case "datalog <-> constructors roundtrip" `Quick
            test_roundtrip;
          Alcotest.test_case "EXPLAIN methods" `Quick test_explain_methods;
          Alcotest.test_case "materialize over surface db" `Quick
            test_materialize_over_surface_db;
        ] );
      ("properties", qcheck [ prop_random_systems_agree ]);
    ]
