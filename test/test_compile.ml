(* Tests for Dc_compile: dependency graphs, quant graphs, N1-N3 rewrites,
   pushdown, planner method selection, access paths. *)

open Dc_relation
open Dc_calculus
open Dc_core
open Dc_compile

let s v = Value.Str v
let pair a b = Tuple.make2 (s a) (s b)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i =
    i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1))
  in
  nn = 0 || loop 0

(* Equal as sets and as read: a closure's answer is a run read in place,
   so it must list the oracle's tuples in the same strictly increasing
   order and count them alike, which the tree [Relation.equal] derives
   from it would not show. *)
let rel_testable =
  Alcotest.testable Relation.pp (fun a b ->
      Relation.equal a b
      && Relation.cardinal a = Relation.cardinal b
      && List.equal Tuple.equal (Relation.to_list a) (Relation.to_list b))

let edge_schema = Constructor.binary_schema Value.TStr

let chain n =
  List.init n (fun i -> pair (Fmt.str "n%d" i) (Fmt.str "n%d" (i + 1)))

let schema_of_db db r = Eval.range_schema (Database.eval_env db) [] r

let make_db ?(edges = chain 6) () =
  let db = Database.create () in
  Database.declare db "Edge" edge_schema;
  Database.set db "Edge" (Relation.of_list edge_schema edges);
  Database.define_constructor db (Constructor.transitive_closure ());
  Database.define_constructor db (Oracle.even_paths ());
  Database.define_constructor db (Constructor.ahead_2 ());
  db

(* ------------------------------------------------------------------ *)
(* Depgraph *)

let test_depgraph () =
  let ahead, above = Constructor.ahead_above () in
  let defs =
    [ Constructor.transitive_closure (); Constructor.ahead_2 (); ahead; above ]
  in
  let g = Depgraph.build defs in
  Alcotest.check Alcotest.bool "tc recursive" true (Depgraph.is_recursive g "tc");
  Alcotest.check Alcotest.bool "ahead2 not recursive" false
    (Depgraph.is_recursive g "ahead2");
  Alcotest.check Alcotest.bool "ahead recursive (mutual)" true
    (Depgraph.is_recursive g "ahead");
  let comp =
    match Depgraph.component_of g "ahead" with
    | Some c -> List.map (fun (d : Defs.constructor_def) -> d.con_name) c
    | None -> []
  in
  Alcotest.check
    Alcotest.(list string)
    "ahead and above share a component"
    [ "above"; "ahead" ]
    (List.sort String.compare comp)

(* ------------------------------------------------------------------ *)
(* Quant graph *)

let test_quant_graph_recursive () =
  let db = make_db () in
  let g =
    Quant_graph.build ~lookup:(Database.constructor db)
      Ast.(Construct (Rel "Edge", "tc", []))
  in
  Alcotest.check Alcotest.bool "tc query recursive" true
    (Quant_graph.is_recursive g);
  Alcotest.check
    Alcotest.(list string)
    "recursive constructor detected" [ "tc" ]
    (Quant_graph.recursive_constructors g)

let test_quant_graph_mutual () =
  (* the ahead/above cycle runs through BOTH constructor heads *)
  let ahead, above = Constructor.ahead_above () in
  let lookup n =
    List.find_opt (fun (d : Defs.constructor_def) -> d.con_name = n) [ ahead; above ]
  in
  let g =
    Quant_graph.build ~lookup
      Ast.(Construct (Rel "Infront", "ahead", [ Arg_range (Rel "Ontop") ]))
  in
  Alcotest.check Alcotest.bool "recursive" true (Quant_graph.is_recursive g);
  Alcotest.check
    Alcotest.(list string)
    "both heads on the cycle" [ "above"; "ahead" ]
    (List.sort String.compare (Quant_graph.recursive_constructors g))

let test_quant_graph_acyclic () =
  let db = make_db () in
  let g =
    Quant_graph.build ~lookup:(Database.constructor db)
      Ast.(Construct (Rel "Edge", "ahead2", []))
  in
  Alcotest.check Alcotest.bool "ahead2 query acyclic" false
    (Quant_graph.is_recursive g)

(* ------------------------------------------------------------------ *)
(* Rewrites *)

let from_selector =
  {
    Defs.sel_name = "from";
    sel_formal = "Rel";
    sel_formal_schema = edge_schema;
    sel_params = [ Defs.Scalar_param ("Obj", Value.TStr) ];
    sel_var = "r";
    sel_pred = Ast.(eq (field "r" "src") (Param "Obj"));
  }

let test_inline_selector () =
  let db = make_db () in
  Database.define_selector db from_selector;
  let q = Ast.(Select (Rel "Edge", "from", [ Arg_scalar (str "n1") ])) in
  let inlined =
    Rewrite.decompile ~names:(Rewrite.names ()) ~schema_of:(schema_of_db db)
      ~selector_of:(Database.selector db)
      ~constructor_of:(Database.constructor db)
      ~is_recursive:(fun _ -> true)
      q
  in
  (* no Select application remains *)
  let rec has_select = function
    | Ast.Select _ -> true
    | Ast.Rel _ -> false
    | Ast.Construct (r, _, _) -> has_select r
    | Ast.Comp bs ->
      List.exists
        (fun (b : Ast.branch) ->
          List.exists (fun (_, r) -> has_select r) b.binders)
        bs
  in
  Alcotest.check Alcotest.bool "selector inlined" false (has_select inlined);
  Alcotest.check rel_testable "same result" (Database.query db q)
    (Database.query db inlined)

let test_inline_constructor () =
  let db = make_db () in
  let q = Ast.(Construct (Rel "Edge", "ahead2", [])) in
  let g = Depgraph.build [ Constructor.ahead_2 () ] in
  let inlined =
    Rewrite.decompile ~names:(Rewrite.names ()) ~schema_of:(schema_of_db db)
      ~selector_of:(Database.selector db)
      ~constructor_of:(Database.constructor db)
      ~is_recursive:(Depgraph.is_recursive g)
      q
  in
  (match inlined with
  | Ast.Construct _ -> Alcotest.fail "ahead2 was not inlined"
  | _ -> ());
  Alcotest.check rel_testable "decompiled ahead2 = direct"
    (Database.query db q) (Database.query db inlined)

let test_flatten_n1 () =
  (* {EACH r IN {EACH r' IN Edge: r'.src = "n1"}: r.dst = "n2"} *)
  let inner =
    Ast.(
      Comp [ branch [ ("r'", Rel "Edge") ] ~where:(eq (field "r'" "src") (str "n1")) ])
  in
  let q =
    Ast.(Comp [ branch [ ("r", inner) ] ~where:(eq (field "r" "dst") (str "n2")) ])
  in
  let flat = Rewrite.flatten_range q in
  (match flat with
  | Ast.Comp [ { binders = [ (_, Ast.Rel "Edge") ]; _ } ] -> ()
  | r -> Alcotest.failf "not flattened: %a" Ast.pp_range r);
  let db = make_db () in
  Alcotest.check rel_testable "N1 preserves semantics" (Database.query db q)
    (Database.query db flat)

let test_flatten_n2_n3 () =
  let db = make_db () in
  let inner =
    Ast.(
      Comp [ branch [ ("x", Rel "Edge") ] ~where:(eq (field "x" "src") (str "n1")) ])
  in
  (* SOME r IN inner (r.dst = q.src) as part of a query *)
  let q quant =
    Ast.(
      Comp
        [
          branch [ ("q", Rel "Edge") ]
            ~where:(quant ("r", inner, eq (field "r" "dst") (field "q" "src")));
        ])
  in
  let some_q = q (fun (v, r, f) -> Ast.Some_in (v, r, f)) in
  let all_q = q (fun (v, r, f) -> Ast.All_in (v, r, f)) in
  (* flattening the query flattens its WHERE clause: no nested range is
     left under the quantifier *)
  List.iter
    (fun query ->
      let flat = Rewrite.flatten_range query in
      (match flat with
      | Ast.Comp [ { where = Ast.Some_in (_, Ast.Rel "Edge", _) | Ast.All_in (_, Ast.Rel "Edge", _); _ } ] -> ()
      | r -> Alcotest.failf "quantifier range not flattened: %a" Ast.pp_range r);
      Alcotest.check rel_testable "N2/N3 preserve semantics"
        (Database.query db query) (Database.query db flat))
    [ some_q; all_q ];
  (* a quantifier named like an outer variable its range reads is left
     nested: renaming x to q would capture the outer q *)
  let capturing quant =
    Ast.(
      Comp
        [
          branch [ ("q", Rel "Edge") ]
            ~where:
              (quant
                 ( "q",
                   Comp
                     [ branch [ ("x", Rel "Edge") ] ~where:(eq (field "x" "src") (field "q" "dst")) ],
                   True ));
        ])
  in
  List.iter
    (fun query ->
      let flat = Rewrite.flatten_range query in
      Alcotest.(check bool) "capture declined" true (flat = query);
      Alcotest.check rel_testable "capture declined: same answer"
        (Database.query db query) (Database.query db flat))
    [
      capturing (fun (v, r, f) -> Ast.Some_in (v, r, f));
      capturing (fun (v, r, f) -> Ast.All_in (v, r, f));
    ]

(* ------------------------------------------------------------------ *)
(* Pushdown and planner *)

let restricted ?(attr = "src") ?(value = "n1") con =
  Ast.(
    Comp
      [
        branch
          [ ("r", Construct (Rel "Edge", con, [])) ]
          ~where:(eq (field "r" attr) (str value));
      ])

let test_push_nonrecursive () =
  let db = make_db () in
  (* ahead2's result type is (head, tail) *)
  let q = restricted ~attr:"head" "ahead2" in
  let d = Planner.plan (Database.typecheck_env db) q in
  (match d.Planner.d_method with
  | Planner.Pushed _ -> ()
  | m -> Alcotest.failf "expected Pushed, got %s" (Planner.method_name m));
  Alcotest.check rel_testable "pushed = direct" (Database.query db q)
    (Planner.execute (Database.eval_env db) d)

let test_magic_route () =
  let db = make_db ~edges:(chain 10) () in
  let q = restricted "even" in
  let d = Planner.plan (Database.typecheck_env db) q in
  (match d.Planner.d_method with
  | Planner.Magic _ -> ()
  | m -> Alcotest.failf "expected Magic, got %s" (Planner.method_name m));
  Alcotest.check rel_testable "magic = direct" (Database.query db q)
    (Planner.execute (Database.eval_env db) d)

let test_magic_with_residual () =
  let db = make_db ~edges:(chain 8) () in
  let q =
    Ast.(
      Comp
        [
          branch
            [ ("r", Construct (Rel "Edge", "even", [])) ]
            ~where:
              (conj
                 (eq (field "r" "src") (str "n1"))
                 (Cmp (Ne, field "r" "dst", str "n3")));
        ])
  in
  let d = Planner.plan (Database.typecheck_env db) q in
  (match d.Planner.d_method with
  | Planner.Magic { residual; _ } ->
    Alcotest.check Alcotest.bool "has residual" true (residual <> Ast.True)
  | m -> Alcotest.failf "expected Magic, got %s" (Planner.method_name m));
  Alcotest.check rel_testable "magic+residual = direct" (Database.query db q)
    (Planner.execute (Database.eval_env db) d)

let test_decompiled_route () =
  (* a selector application over an acyclic constructor: not the restricted
     shape, so the planner decompiles it into a view with a plan *)
  let db = make_db () in
  let sel =
    {
      Defs.sel_name = "head_is";
      sel_formal = "Rel";
      sel_formal_schema = Constructor.ahead_schema Value.TStr;
      sel_params = [ Defs.Scalar_param ("Obj", Value.TStr) ];
      sel_var = "r";
      sel_pred = Ast.(eq (field "r" "head") (Param "Obj"));
    }
  in
  Database.define_selector db sel;
  let q =
    Ast.(
      Select
        (Construct (Rel "Edge", "ahead2", []), "head_is", [ Arg_scalar (str "n1") ]))
  in
  let d = Planner.plan (Database.typecheck_env db) q in
  (match d.Planner.d_method with
  | Planner.Decompiled _ -> ()
  | m -> Alcotest.failf "expected Decompiled, got %s" (Planner.method_name m));
  Alcotest.check Alcotest.bool "has a plan" true (d.Planner.d_plan <> None);
  Alcotest.check rel_testable "decompiled = direct" (Database.query db q)
    (Planner.execute (Database.eval_env db) d)

let test_direct_route () =
  let db = make_db () in
  let q = Ast.(Construct (Rel "Edge", "even", [])) in
  let d = Planner.plan (Database.typecheck_env db) q in
  (match d.Planner.d_method with
  | Planner.Direct -> ()
  | m -> Alcotest.failf "expected Direct, got %s" (Planner.method_name m));
  Alcotest.check rel_testable "direct" (Database.query db q)
    (Planner.execute (Database.eval_env db) d)

let test_explain_output () =
  let db = make_db () in
  let d = Planner.plan (Database.typecheck_env db) (restricted "even") in
  let text = Fmt.str "%a" Planner.explain d in
  Alcotest.check Alcotest.bool "mentions magic" true (contains text "magic")

(* ------------------------------------------------------------------ *)
(* Access paths *)

let test_access_paths_agree () =
  let db = make_db ~edges:(chain 20) () in
  let base = Database.get db "Edge" in
  let env = Database.eval_env db in
  let logical = Access_path.Logical.create env from_selector base in
  let physical = Access_path.Physical.build from_selector base in
  List.iter
    (fun v ->
      let args = [ Eval.V_scalar (Value.Str v) ] in
      Alcotest.check rel_testable
        (Fmt.str "lookup %s" v)
        (Access_path.Logical.apply logical args)
        (Access_path.Physical.apply physical args))
    [ "n0"; "n7"; "n19"; "absent" ]

let test_physical_unsupported () =
  let sel =
    {
      Defs.sel_name = "weird";
      sel_formal = "Rel";
      sel_formal_schema = edge_schema;
      sel_params = [ Defs.Scalar_param ("Obj", Value.TStr) ];
      sel_var = "r";
      sel_pred = Ast.(Cmp (Ne, field "r" "src", Param "Obj"));
    }
  in
  let base = Relation.of_list edge_schema (chain 3) in
  match Access_path.Physical.build sel base with
  | _ -> Alcotest.fail "expected Unsupported"
  | exception Access_path.Unsupported _ -> ()

(* ------------------------------------------------------------------ *)
(* Physical plans *)

let test_plan_compiles_pushed () =
  let db = make_db () in
  let q = restricted ~attr:"head" "ahead2" in
  let d = Planner.plan (Database.typecheck_env db) q in
  (match d.Planner.d_plan with
  | Some plan ->
    let text = Fmt.str "%a" Plan.pp plan in
    Alcotest.check Alcotest.bool "plan uses an index" true
      (contains text "index")
  | None -> Alcotest.fail "expected a compiled plan");
  Alcotest.check rel_testable "plan execution = direct"
    (Database.query db q) (Planner.execute (Database.eval_env db) d)

let test_plan_ablation_same_result () =
  let db = make_db ~edges:(chain 12) () in
  let q = restricted ~attr:"head" "ahead2" in
  let d = Planner.plan (Database.typecheck_env db) q in
  Alcotest.check rel_testable "indexes off = indexes on"
    (Planner.execute ~use_indexes:true (Database.eval_env db) d)
    (Planner.execute ~use_indexes:false (Database.eval_env db) d)

let test_plan_rejects_applications () =
  let db = make_db () in
  match
    Plan.of_range (Database.typecheck_env db)
      Ast.(Construct (Rel "Edge", "tc", []))
  with
  | _ -> Alcotest.fail "expected Not_compilable"
  | exception Plan.Not_compilable _ -> ()

let test_plan_correlated () =
  (* correlated nested range compiles to a per-binding re-evaluated step *)
  let db = make_db () in
  let q =
    Ast.(
      Comp
        [
          branch
            [
              ("r", Rel "Edge");
              ( "s",
                Comp
                  [
                    branch [ ("x", Rel "Edge") ]
                      ~where:(eq (field "x" "src") (field "r" "dst"));
                  ] );
            ]
            ~target:[ field "r" "src"; field "s" "dst" ];
        ])
  in
  let plan =
    Plan.of_range (Database.typecheck_env db)
      q
  in
  Alcotest.check Alcotest.bool "second step correlated" true
    (match (List.hd plan.Plan.p_branches).Plan.bp_steps with
    | [ _; s ] -> s.Plan.s_correlated
    | _ -> false);
  Alcotest.check rel_testable "correlated plan executes correctly"
    (Database.query db q)
    (Plan.run (Database.eval_env db) plan)

let test_plan_reorders_binders () =
  (* the constant-keyed binder is listed last but should be scheduled
     first *)
  let db = make_db ~edges:(chain 8) () in
  let q =
    Ast.(
      Comp
        [
          branch
            [ ("a", Rel "Edge"); ("b", Rel "Edge") ]
            ~target:[ field "a" "src"; field "b" "dst" ]
            ~where:
              (conj
                 (eq (field "a" "dst") (field "b" "src"))
                 (eq (field "b" "src") (str "n3")));
        ])
  in
  let plan =
    Plan.of_range (Database.typecheck_env db)
      q
  in
  (match (List.hd plan.Plan.p_branches).Plan.bp_steps with
  | first :: _ ->
    Alcotest.check Alcotest.string "constant-keyed binder first" "b"
      first.Plan.s_var
  | [] -> Alcotest.fail "empty plan");
  Alcotest.check rel_testable "reordered plan correct" (Database.query db q)
    (Plan.run (Database.eval_env db) plan)

(* Property: compiled plans (indexes on and off) equal direct evaluation
   on random three-way-join queries. *)
let prop_plan_equals_direct =
  let open QCheck in
  let open Ast in
  let term v =
    Gen.oneof
      [
        Gen.oneofl [ field v "src"; field v "dst" ];
        Gen.map (fun i -> str (Fmt.str "n%d" i)) (Gen.int_bound 8);
      ]
  in
  let vars = [ "a"; "b"; "c" ] in
  let cmp =
    Gen.map3
      (fun op x y -> Cmp (op, x, y))
      (Gen.oneofl [ Eq; Ne; Lt; Le ])
      (Gen.oneof (List.map term vars))
      (Gen.oneof (List.map term vars))
  in
  let gen =
    Gen.map2
      (fun f1 f2 ->
        Comp
          [
            branch
              [ ("a", Rel "Edge"); ("b", Rel "Edge"); ("c", Rel "Edge") ]
              ~target:[ field "a" "src"; field "c" "dst" ]
              ~where:(conj f1 f2);
          ])
      cmp cmp
  in
  QCheck.Test.make ~name:"plan = direct (indexes on and off)" ~count:120
    (make gen ~print:range_to_string) (fun q ->
      let db =
        let db = Database.create () in
        Database.declare db "Edge" edge_schema;
        let edge a b = Dc_relation.Tuple.make2 (s a) (s b) in
        Database.set db "Edge"
          (Relation.of_list edge_schema
             (chain 6 @ [ edge "n2" "n5"; edge "n0" "n4" ]));
        db
      in
      let direct = Database.query db q in
      let plan =
        Plan.of_range (Database.typecheck_env db)
          q
      in
      let env = Database.eval_env db in
      Relation.equal direct (Plan.run ~use_indexes:true env plan)
      && Relation.equal direct (Plan.run ~use_indexes:false env plan))

(* ------------------------------------------------------------------ *)
(* Prepared query forms *)

let test_prepared_nonrecursive () =
  let db = make_db ~edges:(chain 10) () in
  (* form: two-hop pairs whose source equals the parameter *)
  let two_hop where =
    Ast.(
      Comp
        [
          branch
            [ ("r", Rel "Edge"); ("s", Rel "Edge") ]
            ~target:[ field "r" "src"; field "s" "dst" ]
            ~where:(conj (eq (field "r" "src") where) (eq (field "r" "dst") (field "s" "src")));
        ])
  in
  let prepared =
    Planner.prepare (Database.typecheck_env db)
      ~params:[ ("Obj", Value.TStr) ] (two_hop (Ast.Param "Obj"))
  in
  Alcotest.check Alcotest.bool "compiled to a plan" true
    (contains (Planner.prepared_description prepared) "compiled plan");
  (* a restricted acyclic application is planned as the unprepared query
     is: decompiled, the restriction pushed, the result compiled *)
  let ahead =
    Ast.(
      Comp
        [
          branch
            [ ("r", Construct (Rel "Edge", "ahead2", [])) ]
            ~where:(eq (field "r" "head") (Param "Obj"));
        ])
  in
  let pushed =
    Planner.prepare (Database.typecheck_env db)
      ~params:[ ("Obj", Value.TStr) ] ahead
  in
  Alcotest.check Alcotest.bool "application pushed and compiled" true
    (contains (Planner.prepared_description pushed) "compiled plan");
  List.iter
    (fun v ->
      (* reference: substitute the constant and evaluate directly *)
      let direct = Database.query db (two_hop (Ast.str v)) in
      let got =
        Planner.run_prepared prepared (Database.eval_env db) [ Value.Str v ]
      in
      Alcotest.check rel_testable (Fmt.str "prepared(%s) = direct" v) direct got;
      Alcotest.(check (list string))
        (Fmt.str "prepared(%s) columns" v)
        (Schema.attr_names (Relation.schema direct))
        (Schema.attr_names (Relation.schema got));
      Alcotest.check rel_testable
        (Fmt.str "pushed(%s) = direct" v)
        (Database.query db
           Ast.(
             Comp
               [
                 branch
                   [ ("r", Construct (Rel "Edge", "ahead2", [])) ]
                   ~where:(eq (field "r" "head") (str v));
               ]))
        (Planner.run_prepared pushed (Database.eval_env db) [ Value.Str v ]))
    [ "n0"; "n4"; "n9"; "absent" ]

(* A parameter restricting a recursive closure binds its column: the
   form runs the closure operator, and each value is the source of its
   one traversal, forwards from a bound first column and backwards from
   a bound second one. *)
let test_prepared_recursive_method () =
  let db = make_db ~edges:(chain 6 @ [ pair "n6" "n2" ]) () in
  List.iter
    (fun (attr, direction) ->
      let form =
        Ast.(
          Comp
            [
              branch
                [ ("r", Construct (Rel "Edge", "tc", [])) ]
                ~where:(eq (field "r" attr) (Param "Obj"));
            ])
      in
      let prepared =
        Planner.prepare (Database.typecheck_env db)
          ~params:[ ("Obj", Value.TStr) ] form
      in
      Alcotest.(check bool)
        (attr ^ " bound: method") true
        (contains (Planner.prepared_description prepared)
           ("closure operator; tc is regular over Rel: closure operator, "
           ^ direction));
      List.iter
        (fun v ->
          let direct =
            Database.query db
              Ast.(
                Comp
                  [
                    branch
                      [ ("r", Construct (Rel "Edge", "tc", [])) ]
                      ~where:(eq (field "r" attr) (str v));
                  ])
          in
          Alcotest.check rel_testable
            (Fmt.str "%s = %s (%s) = interpreter" attr v direction)
            direct
            (Planner.run_prepared prepared (Database.eval_env db) [ Value.Str v ]))
        [ "n0"; "n2"; "n6"; "absent" ])
    [
      ("src", "from r's bound first column");
      ("dst", "backwards from r's bound second column");
    ]

let test_prepared_argument_checks () =
  let db = make_db () in
  let form = Ast.(Comp [ branch [ ("r", Rel "Edge") ] ~where:(eq (field "r" "src") (Param "Obj")) ]) in
  let prepared =
    Planner.prepare (Database.typecheck_env db) ~params:[ ("Obj", Value.TStr) ] form
  in
  let env = Database.eval_env db in
  (match Planner.run_prepared prepared env [] with
  | _ -> Alcotest.fail "expected arity error"
  | exception Eval.Runtime_error _ -> ());
  match Planner.run_prepared prepared env [ Value.Int 3 ] with
  | _ -> Alcotest.fail "expected type error"
  | exception Eval.Runtime_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Materialized views with incremental maintenance (Ivm) *)

module Ivm = Dc_ivm.Ivm
module Datalog = Dc_datalog

let tc_range = Ast.(Construct (Rel "Edge", "tc", []))

let tc_view_db ?(linear = `Right) edges =
  let db = Database.create () in
  Database.declare db "Edge" edge_schema;
  Database.set db "Edge" (Relation.of_list edge_schema edges);
  Database.define_constructor db (Constructor.transitive_closure ~linear ());
  (db, Ivm.materialize db ~constructor:"tc" ~base:"Edge" ~args:[])

(* The from-scratch oracle: a semi-naive run of the application's Horn
   translation over the current base, with the tuples it derives.
   [Database.query] is no oracle here — the view itself serves it. *)
let seminaive_of db range =
  let program, pred, aggs =
    Datalog.Translate.of_application_full
      (Datalog.Translate.context (Database.typecheck_env db))
      range
  in
  let edb =
    Datalog.Translate.edb (Snapshot.get (Database.snapshot db)) program
  in
  let stats = Datalog.Seminaive.fresh_stats () in
  let store = Datalog.Seminaive.run ~stats ~aggs program edb in
  (Datalog.Facts.to_relation edge_schema store pred, stats.derivations)

let seminaive_tc db = seminaive_of db tc_range

(* The tuples of the phase whose label starts with [phase] in the one
   report since the last reset. *)
let phase_tuples phase =
  match Ivm.reports () with
  | [ rp ] -> (
    match
      List.find_opt
        (fun (ph : Ivm.phase) -> String.starts_with ~prefix:phase ph.ph_label)
        rp.rp_phases
    with
    | Some ph -> ph.ph_tuples
    | None -> Alcotest.failf "no %S phase" phase)
  | rps -> Alcotest.failf "%d reports, expected 1" (List.length rps)

let test_materialize_insert () =
  (* left-linear recursion: the closure is re-traversed from the sources
     upstream of the inserted edge's tail, and no count is kept *)
  let db, view = tc_view_db ~linear:`Left (chain 20) in
  Alcotest.check Alcotest.int "initial closure" (20 * 21 / 2)
    (Ivm.cardinal view);
  Alcotest.(check string) "route" "traversal (tc__Edge over Edge)" (Ivm.plan_kind view);
  let insert edge ~sources ~rows =
    Ivm.reset_reports ();
    Database.insert db "Edge" edge;
    Alcotest.check rel_testable
      (Fmt.str "insert %a = semi-naive oracle" Tuple.pp edge)
      (fst (seminaive_tc db)) (Ivm.value view);
    Alcotest.(check int) "affected sources" sources (phase_tuples "affected sources");
    Alcotest.(check int) "replaced rows" rows (phase_tuples "replace rows")
  in
  (* at the chain's end every node is upstream: one more generation *)
  insert (pair "n20" "n21") ~sources:21 ~rows:21;
  Alcotest.check Alcotest.int "one more generation" (21 * 22 / 2)
    (Ivm.cardinal view);
  Alcotest.(check bool) "no counts built" false (Ivm.counts_built view);
  (* from a new node into the chain's middle: that node alone *)
  insert (pair "m" "n10") ~sources:1 ~rows:12

(* Pairs an even number of edges apart: a recursive system the traversal
   declines (its exit composes two relations), so DRed^c maintains it. *)
let even_def : Dc_calculus.Defs.constructor_def =
  let self = Ast.Construct (Ast.Rel "Rel", "even", []) in
  let two = Ast.(eq (field "f" "dst") (field "g" "src")) in
  {
    con_name = "even";
    con_formal = "Rel";
    con_formal_schema = edge_schema;
    con_params = [];
    con_result = edge_schema;
    con_agg = None;
    con_body =
      Ast.
        [
          branch
            [ ("f", Rel "Rel"); ("g", Rel "Rel") ]
            ~target:[ field "f" "src"; field "g" "dst" ]
            ~where:two;
          branch
            [ ("f", Rel "Rel"); ("g", Rel "Rel"); ("p", self) ]
            ~target:[ field "f" "src"; field "p" "dst" ]
            ~where:(conj two (eq (field "g" "dst") (field "p" "src")));
        ];
  }

(* Tuples the maintenance phases [keep] accepts touched since the last
   reset. *)
let maintained_tuples ?(keep = fun _ -> true) () =
  List.fold_left
    (fun n (rp : Ivm.report) ->
      List.fold_left
        (fun n (ph : Ivm.phase) -> if keep ph.ph_label then n + ph.ph_tuples else n)
        n rp.rp_phases)
    0 (Ivm.reports ())

let build_counts = String.equal "build counts"

let test_materialize_insert_dred () =
  (* an insertion at the chain's end reaches back along it: DRed's
     phases touch the new pairs, not the extent *)
  let db = Database.create () in
  Database.declare db "Edge" edge_schema;
  Database.set db "Edge" (Relation.of_list edge_schema (chain 20));
  Database.define_constructor db even_def;
  let view = Ivm.materialize db ~constructor:"even" ~base:"Edge" ~args:[] in
  let range = Ast.(Construct (Rel "Edge", "even", [])) in
  Alcotest.(check string) "route" "incremental (even__Edge:dred)" (Ivm.plan_kind view);
  Ivm.reset_reports ();
  Database.insert db "Edge" (pair "n20" "n21");
  (* the first update after MATERIALIZE also runs the one-time pass
     that builds the recursive derivation counts *)
  Alcotest.(check bool) "the first update builds the counts" true
    (maintained_tuples ~keep:build_counts () > 0);
  let touched = maintained_tuples ~keep:(fun l -> not (build_counts l)) () in
  let oracle, derived = seminaive_of db range in
  Alcotest.check rel_testable "maintained = semi-naive oracle" oracle (Ivm.value view);
  Alcotest.check Alcotest.bool
    (Fmt.str "maintenance touches under half (%d vs %d)" touched derived)
    true
    (touched > 0 && touched * 2 < derived);
  (* every later update, count pass included, is delta-proportional *)
  Ivm.reset_reports ();
  Database.insert db "Edge" (pair "n21" "n22");
  let touched = maintained_tuples () in
  let oracle, derived = seminaive_of db range in
  Alcotest.check rel_testable "second insert = semi-naive oracle" oracle (Ivm.value view);
  Alcotest.check Alcotest.bool
    (Fmt.str "second insert touches under half (%d vs %d)" touched derived)
    true
    (touched > 0 && touched * 2 < derived)

let test_materialize_insert_random () =
  (* property-style: random graph, random extra edges, always equal *)
  for seed = 12 to 16 do
    let base = Dc_workload.Graph_gen.random_graph ~seed ~nodes:12 ~edges:20 in
    let db, view = tc_view_db (Relation.to_list base) in
    let extra =
      Dc_workload.Graph_gen.random_graph ~seed:(seed + 100) ~nodes:12 ~edges:5
    in
    Database.insert_all db "Edge" (Relation.to_list extra);
    Alcotest.check rel_testable "maintained = oracle under random growth"
      (fst (seminaive_tc db)) (Ivm.value view)
  done

let test_materialize_delete () =
  let db, view = tc_view_db (chain 6) in
  Database.delete db "Edge" (pair "n3" "n4");
  Alcotest.check rel_testable "delete maintains" (fst (seminaive_tc db))
    (Ivm.value view);
  Alcotest.check Alcotest.bool "chain broken" false
    (Relation.mem (pair "n0" "n6") (Ivm.value view))

(* Property: planner-chosen methods agree with direct evaluation on random
   graphs and random source restrictions. *)
let prop_planner_agrees =
  let arb =
    QCheck.(
      pair
        (list_of_size Gen.(int_bound 20) (pair (int_bound 7) (int_bound 7)))
        (int_bound 7))
  in
  QCheck.Test.make ~name:"planner methods = direct" ~count:40 arb
    (fun (edges, start) ->
      let edges =
        List.map (fun (a, b) -> pair (Fmt.str "n%d" a) (Fmt.str "n%d" b)) edges
      in
      let db =
        let db = Database.create () in
        Database.declare db "Edge" edge_schema;
        Database.set db "Edge" (Relation.of_list edge_schema edges);
        Database.define_constructor db (Constructor.transitive_closure ());
        Database.define_constructor db (Constructor.ahead_2 ());
        db
      in
      List.for_all
        (fun (con, attr) ->
          let q = restricted ~attr ~value:(Fmt.str "n%d" start) con in
          let d = Planner.plan (Database.typecheck_env db) q in
          Relation.equal (Database.query db q) (Planner.execute (Database.eval_env db) d))
        [ ("tc", "src"); ("ahead2", "head") ])

(* ------------------------------------------------------------------ *)
(* Plans pinned: the shared scheduler ({!Eval.schedule}) picks the plans
   the planner printed when it scheduled binders on its own.  Fresh
   variable suffixes ([r~7]) depend on what ran before, and so does the
   indentation of a box that follows one, so both are normalized. *)

let plan_text plan =
  Fmt.str "%a" Plan.pp plan
  |> Str.global_replace (Str.regexp "~[0-9]+") "~_"
  |> Str.global_replace (Str.regexp "[ \n]+") " "

let head_is =
  {
    Defs.sel_name = "head_is";
    sel_formal = "Rel";
    sel_formal_schema = Constructor.ahead_schema Value.TStr;
    sel_params = [ Defs.Scalar_param ("Obj", Value.TStr) ];
    sel_var = "r";
    sel_pred = Ast.(eq (field "r" "head") (Param "Obj"));
  }

let test_plans_pinned () =
  let db = make_db () in
  Database.define_selector db head_is;
  let plan_of q =
    match (Planner.plan (Database.typecheck_env db) q).Planner.d_plan with
    | Some plan -> plan_text plan
    | None -> Alcotest.fail "expected a compiled plan"
  in
  Alcotest.(check string)
    "pushed plan"
    "union: pipeline: index on src = \"n1\" r~_ IN Edge pipeline: index on \
     src = \"n1\" f~_ IN Edge index on src = f~_.dst b~_ IN Edge project \
     <f~_.src, b~_.dst>"
    (plan_of (restricted ~attr:"head" "ahead2"));
  Alcotest.(check string)
    "decompiled plan"
    "pipeline: index on src = \"n1\" r~_ IN (union: pipeline: scan r~_ IN \
     Edge pipeline: scan f~_ IN Edge index on src = f~_.dst b~_ IN Edge \
     project <f~_.src, b~_.dst>)"
    (plan_of
       Ast.(
         Select
           ( Construct (Rel "Edge", "ahead2", []),
             "head_is",
             [ Arg_scalar (str "n1") ] )));
  let reordered =
    Ast.(
      Comp
        [
          branch
            [ ("a", Rel "Edge"); ("b", Rel "Edge") ]
            ~target:[ field "a" "src"; field "b" "dst" ]
            ~where:
              (conj
                 (eq (field "a" "dst") (field "b" "src"))
                 (eq (field "b" "src") (str "n3")));
        ])
  in
  Alcotest.(check string)
    "reordered plan"
    "pipeline: index on src = \"n3\" b IN Edge index on dst = b.src a IN \
     Edge project <a.src, b.dst>"
    (plan_text (Plan.of_range (Database.typecheck_env db) reordered))

(* EXPLAIN of an acyclic query: the quant graph's last line ends the
   line, so the physical pipelines EXPLAIN prints next start their own. *)
let test_explain_acyclic_text () =
  let db = make_db () in
  let _, out =
    Dc_lang.Elaborate.run_string ~db
      "EXPLAIN {EACH r IN Edge{ahead2()}: r.head = \"n1\"};"
  in
  Alcotest.(check bool)
    (Fmt.str "quant graph line ends before the pipelines:@.%s" out)
    true
    (contains out "  acyclic: decompile as view\nphysical:\n")

(* ------------------------------------------------------------------ *)
(* Differential: planned = direct, over both environments.  Each seed
   builds one of the oracle's recursive shapes (closures, same
   generation, mutual recursion, BOM) next to a random Edge relation,
   and restricts the shape's application and an application-free
   two-hop join by random constants: on the first column, on the
   second, and with a residual [<>].  Every decision runs over the
   database's own environment and over a snapshot's, against the
   interpreter over the same environment. *)

module Rng = Dc_workload.Rng
module Graph_gen = Dc_workload.Graph_gen

type shape = {
  sh_name : string;
  sh_app : Ast.range;  (** the shape's recursive application *)
  sh_columns : string * string;  (** its result's first two columns *)
  sh_value : unit -> Value.t;  (** a random constant of those columns *)
}

let declare_random db rng name schema ~nodes =
  let seed = Rng.int rng 1_000_000 in
  let g =
    Graph_gen.random_graph ~seed ~nodes ~edges:(nodes + Rng.int rng (2 * nodes))
  in
  Database.declare db name schema;
  Database.set db name (Relation.of_list schema (Relation.to_list g))

let differential_shape rng db =
  let nodes = 4 + Rng.int rng 9 in
  let graph name schema = declare_random db rng name schema ~nodes in
  let node () = Graph_gen.node (Rng.int rng nodes) in
  match Rng.int rng 6 with
  | (0 | 1 | 2) as k ->
    let linear = List.nth [ `Right; `Left; `Non ] k in
    Database.define_constructor db
      (Constructor.transitive_closure ~name:"closure" ~linear ());
    {
      sh_name = List.nth [ "tc right"; "tc left"; "tc nonlinear" ] k;
      sh_app = Ast.(Construct (Rel "Edge", "closure", []));
      sh_columns = ("src", "dst");
      sh_value = node;
    }
  | 3 ->
    List.iter (fun n -> graph n edge_schema) [ "Up"; "Flat"; "Down" ];
    Database.define_constructor db (Constructor.same_generation ());
    {
      sh_name = "same generation";
      sh_app =
        Ast.(
          Construct
            ( Rel "Up",
              "same_generation",
              [ Arg_range (Rel "Flat"); Arg_range (Rel "Down") ] ));
      sh_columns = ("src", "dst");
      sh_value = node;
    }
  | 4 ->
    graph "Infront" (Constructor.infront_schema Value.TStr);
    graph "Ontop" (Constructor.ontop_schema Value.TStr);
    let ahead, above = Constructor.ahead_above () in
    Database.define_constructors db [ ahead; above ];
    {
      sh_name = "mutual ahead/above";
      sh_app =
        Ast.(Construct (Rel "Infront", "ahead", [ Arg_range (Rel "Ontop") ]));
      sh_columns = ("head", "tail");
      sh_value = node;
    }
  | _ ->
    let levels = 2 + Rng.int rng 3 and width = 2 + Rng.int rng 3 in
    let seed = Rng.int rng 1_000_000 in
    Database.declare db "Contains" Dc_workload.Bom_gen.contains_schema;
    Database.set db "Contains"
      (Dc_workload.Bom_gen.hierarchy ~seed ~levels ~width
         ~uses:(1 + Rng.int rng width));
    Database.define_constructor db (Dc_workload.Bom_gen.explode_constructor ());
    {
      sh_name = "bom";
      sh_app = Ast.(Construct (Rel "Contains", "explode", []));
      sh_columns = ("assembly", "component");
      sh_value =
        (fun () -> Dc_workload.Bom_gen.part (Rng.int rng (levels * width)));
    }

(* The three restrictions of [v]'s columns [a] and [b]. *)
let restrictions v (a, b) value =
  let c () = Ast.Const (value ()) in
  Ast.
    [
      eq (field v a) (c ());
      eq (field v b) (c ());
      conj (eq (field v a) (c ())) (Cmp (Ne, field v b, c ()));
    ]

let method_label (d : Planner.decision) =
  match d.d_method, d.d_plan with
  | Planner.Direct, None -> "direct interpreted"
  | Planner.Direct, Some _ -> "direct compiled"
  | m, _ -> Planner.method_name m

let differential_seed seen seed =
  let rng = Rng.create seed in
  let db = Database.create () in
  let nodes = 4 + Rng.int rng 9 in
  declare_random db rng "Edge" edge_schema ~nodes;
  Database.define_constructor db (Constructor.ahead_2 ());
  Database.define_selector db head_is;
  let sh = differential_shape rng db in
  let node () = Graph_gen.node (Rng.int rng nodes) in
  let over range where = Ast.(Comp [ branch [ ("p", range) ] ~where ]) in
  let two_hop where =
    Ast.(
      Comp
        [
          branch
            [ ("e", Rel "Edge"); ("f", Rel "Edge") ]
            ~target:[ field "e" "src"; field "f" "dst" ]
            ~where:(conj where (eq (field "e" "dst") (field "f" "src")));
        ])
  in
  let ahead2 = Ast.(Construct (Rel "Edge", "ahead2", [])) in
  (* a quantifier whose range is correlated with the restricted variable:
     pushing the restriction must rewrite [p] inside that range too *)
  let correlated quant =
    over ahead2
      (quant
         ( "q",
           Ast.(
             Comp
               [
                 branch [ ("e", Rel "Edge") ]
                   ~where:(eq (field "e" "src") (field "p" "tail"));
               ]),
           Ast.True ))
  in
  let queries =
    (sh.sh_app
     :: List.map (over sh.sh_app) (restrictions "p" sh.sh_columns sh.sh_value)
    )
    @ List.map two_hop (restrictions "e" ("src", "dst") node)
    @ Ast.
        [
          over ahead2 (eq (field "p" "head") (Const (node ())));
          Select (ahead2, "head_is", [ Arg_scalar (Const (node ())) ]);
          correlated (fun (v, r, f) -> Some_in (v, r, f));
          correlated (fun (v, r, f) -> Not (All_in (v, r, f)));
        ]
  in
  List.iter
    (fun q ->
      let d = Planner.plan (Database.typecheck_env db) q in
      Hashtbl.replace seen (method_label d) ();
      List.iter
        (fun (env_name, env) ->
          let msg =
            Fmt.str "seed %d: %s, %s over the %s env: %a" seed sh.sh_name
              (method_label d) env_name Ast.pp_range q
          in
          let want = Eval.eval_range (env ()) q in
          let got = Planner.execute (env ()) d in
          Alcotest.check rel_testable msg want got;
          Alcotest.(check (list string))
            (msg ^ " (columns)")
            (Schema.attr_names (Relation.schema want))
            (Schema.attr_names (Relation.schema got)))
        [
          ("database", fun () -> Database.eval_env db);
          ("snapshot", fun () -> Snapshot.eval_env (Database.snapshot db));
        ])
    queries

let test_planner_differential () =
  let seen = Hashtbl.create 8 in
  for seed = 1 to 40 do
    differential_seed seen seed
  done;
  List.iter
    (fun m ->
      Alcotest.(check bool) (Fmt.str "seeds 1-40 exercise %s" m) true
        (Hashtbl.mem seen m))
    [
      "direct interpreted";
      "direct compiled";
      Planner.method_name (Planner.Pushed (Ast.Rel ""));
      Planner.method_name (Planner.Decompiled (Ast.Rel ""));
      "magic (capture rule)";
      "closure operator";
    ]

(* A restriction with a quantifier over a range correlated with the
   restricted variable, through the two statement paths: [dbpl run]'s
   QUERY and EXPLAIN, and a served read, first a cache miss and then a
   hit.  Each answers the interpreter's two tuples. *)
let correlated_source =
  {|TYPE node = STRING;
TYPE edgerel = RELATION a, b OF RECORD a, b: node END;
VAR Chain: edgerel;
CONSTRUCTOR hop FOR Rel: edgerel (): edgerel;
BEGIN <e.a, f.b> OF EACH e IN Rel, EACH f IN Rel: e.b = f.a
END hop;
INSERT Chain VALUES ("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n3", "n4");
|}

let correlated_range =
  "{EACH p IN Chain{hop()}: SOME q IN {EACH e IN Chain: e.a = p.b} (TRUE)}"

let test_correlated_quantifier_range () =
  let want = [ pair "n0" "n2"; pair "n1" "n3" ] in
  let db, out =
    Dc_lang.Elaborate.run_string
      (Fmt.str "%sQUERY %s;\nEXPLAIN %s;" correlated_source correlated_range
         correlated_range)
  in
  Alcotest.(check bool)
    (Fmt.str "dbpl run answers 2 tuples:@.%s" out)
    true
    (contains out "(2 tuples)" && contains out "method: pushed restriction");
  (* N2 flattens the quantifier range the restriction was pushed into: one
     filter over Chain, not a comprehension run per row *)
  Alcotest.(check bool)
    (Fmt.str "EXPLAIN shows the flattened quantifier:@.%s" out)
    true
    (contains out "filter SOME q IN Chain (q.a = f~2.b)"
    && not (contains out "counters totalled"));
  let was = Dc_obs.Obs.on () in
  Dc_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Dc_obs.Obs.set_enabled was) @@ fun () ->
  let count result =
    Dc_obs.Obs.Counter.value
      (Dc_obs.Obs.Counter.make ~labels:[ ("result", result) ]
         "dc_server_stmt_cache_total")
  in
  let srv = Dc_server.Server.create db in
  let s = Dc_server.Server.open_session srv in
  List.iter
    (fun result ->
      let before = count result in
      let got, _ =
        Dc_server.Server.query_string s ("QUERY " ^ correlated_range ^ ";")
      in
      Alcotest.(check int) ("served read: cache " ^ result) 1
        (count result - before);
      Alcotest.check rel_testable ("served read (" ^ result ^ ")")
        (Relation.of_list (Relation.schema got) want) got)
    [ "miss"; "hit" ];
  Dc_server.Server.close_session s;
  Dc_server.Server.shutdown srv

(* ------------------------------------------------------------------ *)
(* Closures: the recogniser and the closure operator.  Over seeded
   random graphs (cycles included), the right-linear, left-linear,
   non-linear and mixed closures are read unbound, with the first column
   bound, the second, both, and the first with a residual; each decision
   must run the closure operator seeded by the column the binding needs,
   and run over the database's and a snapshot's environment — planned
   and as a prepared form with the constant lifted — it must equal the
   interpreter. *)

let mixed_closure name =
  let def = Constructor.transitive_closure ~name ~linear:`Right () in
  let self = Ast.Construct (Ast.Rel "Rel", name, []) in
  {
    def with
    Defs.con_body =
      def.con_body
      @ Ast.
          [
            branch
              [ ("p", self); ("q", self) ]
              ~target:[ field "p" "src"; field "q" "dst" ]
              ~where:(eq (field "q" "src") (field "p" "dst"));
          ];
  }

let closures =
  [
    ("cr", Constructor.transitive_closure ~name:"cr" ~linear:`Right ());
    ("cl", Constructor.transitive_closure ~name:"cl" ~linear:`Left ());
    ("cn", Constructor.transitive_closure ~name:"cn" ~linear:`Non ());
    ("cm", mixed_closure "cm");
  ]

(* The traversal's seed column a closure query must get, [bound] listing
   the bound columns: the first when it is bound, else the second. *)
let seed_column (d : Planner.decision) =
  match d.d_method with
  | Planner.Traversal { seed; _ } ->
    Some (Option.map (fun (s : Planner.seed) -> s.s_column) seed)
  | _ -> None

let expected_seed_column = function
  | [] -> Some None
  | "src" :: _ -> Some (Some 0)
  | _ -> Some (Some 1)

(* Replace the restriction constants by prepared-form parameters. *)
let lift where =
  let params = ref [] in
  let rec go = function
    | Ast.Cmp (Ast.Eq, (Ast.Field _ as f), Ast.Const v) ->
      let p = Fmt.str "$%d" (List.length !params) in
      params := !params @ [ (p, v) ];
      Ast.Cmp (Ast.Eq, f, Ast.Param p)
    | Ast.And (a, b) ->
      let a = go a in
      Ast.And (a, go b)
    | f -> f
  in
  let where = go where in
  (where, !params)

let closure_seed seed =
  let rng = Rng.create seed in
  let db = Database.create () in
  let nodes = 4 + Rng.int rng 9 in
  declare_random db rng "Edge" edge_schema ~nodes;
  List.iter (fun (_, d) -> Database.define_constructor db d) closures;
  let node () = Ast.Const (Graph_gen.node (Rng.int rng nodes)) in
  let envs =
    [
      ("database", fun () -> Database.eval_env db);
      ("snapshot", fun () -> Snapshot.eval_env (Database.snapshot db));
    ]
  in
  List.iter
    (fun (con, _) ->
      let app = Ast.(Construct (Rel "Edge", con, [])) in
      let cases =
        Ast.
          [
            ([], True);
            ([ "src" ], eq (field "p" "src") (node ()));
            ([ "dst" ], eq (field "p" "dst") (node ()));
            ( [ "src"; "dst" ],
              conj (eq (field "p" "src") (node ())) (eq (field "p" "dst") (node ())) );
            ( [ "src" ],
              conj (eq (field "p" "src") (node ())) (Cmp (Ne, field "p" "dst", node ())) );
          ]
      in
      List.iter
        (fun (bound, where) ->
          let q = Ast.(Comp [ branch [ ("p", app) ] ~where ]) in
          let catalog = Database.typecheck_env db in
          let d = Planner.plan catalog q in
          let msg what =
            Fmt.str "seed %d: %s, %s: %a" seed con what Ast.pp_range q
          in
          Alcotest.(check string) (msg "method") "closure operator"
            (Planner.method_name d.d_method);
          Alcotest.(check (option (option int))) (msg "seed column")
            (expected_seed_column bound) (seed_column d);
          let lifted, params = lift where in
          let form =
            Planner.prepare catalog
              ~params:(List.map (fun (p, v) -> (p, Value.type_of v)) params)
              Ast.(Comp [ branch [ ("p", app) ] ~where:lifted ])
          in
          let values = List.map snd params in
          List.iter
            (fun (env_name, env) ->
              let want = Eval.eval_range (env ()) q in
              Alcotest.check rel_testable
                (msg ("planned over the " ^ env_name ^ " env"))
                want (Planner.execute (env ()) d);
              Alcotest.check rel_testable
                (msg ("prepared over the " ^ env_name ^ " env"))
                want
                (Planner.run_prepared form (env ()) values))
            envs)
        cases)
    closures

let test_closure_differential () =
  for seed = 1 to 25 do
    closure_seed seed
  done

(* The closure operator against the engines it replaces.  Each input —
   a chain, a strongly connected digraph, a DAG with shortcuts, a graph
   with self-loops, an empty base, and a digraph over INTEGER columns —
   is closed by the constructor fixpoint ([Fixpoint.apply]) and by
   semi-naive Datalog, which must agree; then every binding pattern
   (nothing bound, the first column, the second, both, a residual
   conjunct, a quantifier over the closure again or over another
   closure, and each bound column as a prepared parameter) must answer
   that closure restricted by the pattern, planned over the database's
   and a snapshot's environment. *)

let path_program =
  Dc_datalog.Syntax.
    [
      rule (atom "path" [ var "X"; var "Y" ]) [ Pos (atom "edge" [ var "X"; var "Y" ]) ];
      rule
        (atom "path" [ var "X"; var "Z" ])
        [ Pos (atom "edge" [ var "X"; var "Y" ]); Pos (atom "path" [ var "Y"; var "Z" ]) ];
    ]

let closure_families rng n =
  let random k = List.init k (fun _ -> (Rng.int rng n, Rng.int rng n)) in
  let chain = List.init (n - 1) (fun i -> (i, i + 1)) in
  [
    ("chain", Value.TStr, chain);
    ( "strongly connected",
      Value.TStr,
      List.init n (fun i -> (i, (i + 1) mod n))
      @ List.filter (fun (a, b) -> a <> b) (random n) );
    ( "dag with shortcuts",
      Value.TStr,
      chain @ List.filter (fun (a, b) -> a + 1 < b) (random (2 * n)) );
    ("self-loops", Value.TStr, random n @ List.init 3 (fun _ -> let k = Rng.int rng n in (k, k)));
    ("empty", Value.TStr, []);
    ("integer", Value.TInt, random (2 * n));
  ]

(* Every [where] over [p] ranging over [app] must run the closure
   operator and answer [full] restricted by [where], planned and as a
   prepared form with its constants lifted, over the database's and a
   snapshot's environment. *)
let planned_patterns ~msg db app schema full patterns =
  List.iter
    (fun where ->
      let q = Ast.(Comp [ branch [ ("p", app) ] ~where ]) in
      let want =
        Relation.filter
          (fun t ->
            Eval.eval_formula
              (Eval.bind_var (Database.eval_env db) "p" t schema)
              where)
          full
      in
      let catalog = Database.typecheck_env db in
      let d = Planner.plan catalog q in
      let msg what = msg (Fmt.str "%s: %a" what Ast.pp_range q) in
      Alcotest.(check string) (msg "method") "closure operator"
        (Planner.method_name d.d_method);
      let lifted, params = lift where in
      let form =
        Planner.prepare catalog
          ~params:(List.map (fun (p, v) -> (p, Value.type_of v)) params)
          Ast.(Comp [ branch [ ("p", app) ] ~where:lifted ])
      in
      List.iter
        (fun (env_name, env) ->
          Alcotest.check rel_testable
            (msg ("planned over the " ^ env_name ^ " env"))
            want (Planner.execute (env ()) d);
          Alcotest.check rel_testable
            (msg ("prepared over the " ^ env_name ^ " env"))
            want
            (Planner.run_prepared form (env ()) (List.map snd params)))
        [
          ("database", fun () -> Database.eval_env db);
          ("snapshot", fun () -> Snapshot.eval_env (Database.snapshot db));
        ])
    patterns

let closure_oracle_seed seed =
  let rng = Rng.create seed in
  let n = 3 + Rng.int rng 12 in
  List.iter
    (fun (family, ty, edges) ->
      let value i =
        match ty with Value.TInt -> Value.Int i | _ -> Graph_gen.node i
      in
      let schema = Constructor.binary_schema ty in
      let def =
        Constructor.transitive_closure ~name:"c" ~ty
          ~linear:(Rng.pick rng [ `Right; `Left; `Non ])
          ()
      in
      let db = Database.create () in
      Database.declare db "Edge" schema;
      Database.set db "Edge"
        (Relation.of_list schema
           (List.sort_uniq compare edges
           |> List.map (fun (a, b) -> Tuple.make2 (value a) (value b))));
      Database.define_constructor db def;
      Database.define_constructor db
        (Constructor.transitive_closure ~name:"d" ~ty ~linear:`Left ());
      let base = Database.get db "Edge" in
      let msg what = Fmt.str "seed %d, %s (%d nodes): %s" seed family n what in
      let fixpoint = Fixpoint.apply (Database.eval_env db) def base [] in
      let datalog =
        Dc_datalog.Seminaive.query path_program
          (Dc_datalog.Facts.of_relation "edge" base (Dc_datalog.Facts.empty ()))
          "path"
      in
      Alcotest.check rel_testable (msg "Fixpoint.apply = Seminaive") fixpoint
        (Relation.of_set_unchecked schema datalog);
      (* one node past the graph, so some keys are absent *)
      let node () = Ast.Const (value (Rng.int rng (n + 1))) in
      let app = Ast.(Construct (Rel "Edge", "c", [])) in
      let patterns =
        Ast.
          [
            True;
            eq (field "p" "src") (node ());
            eq (field "p" "dst") (node ());
            conj (eq (field "p" "src") (node ())) (eq (field "p" "dst") (node ()));
            conj (eq (field "p" "dst") (node ())) (Cmp (Ne, field "p" "src", node ()));
            (* a second application of the closure stays whole *)
            conj
              (eq (field "p" "src") (node ()))
              (Some_in ("q", app, eq (field "q" "src") (field "p" "dst")));
            (* nor does an application of another closure *)
            conj
              (eq (field "p" "src") (node ()))
              (Some_in
                 ( "q",
                   Construct (Rel "Edge", "d", []),
                   eq (field "q" "src") (field "p" "dst") ));
          ]
      in
      planned_patterns ~msg db app schema fixpoint patterns)
    (closure_families rng n)

(* A seeded regular system of [k] states s0 .. s(k-1), each FOR Rel:
   edge (A: edge, B: edge): edge.  Each state has zero to two exits over
   its slots Rel, A and B, a step into the next state (so s0 is
   recursive) and up to two more into random states; every application
   a body makes passes the three slots in a random order, so the states
   the recogniser unfolds are (constructor, order) pairs, as the scene's
   Ontop{above(Rel)} is.  Every step is right-linear ([slot ∘ app]) or
   every one left-linear ([app ∘ slot]); binder order and the side of the
   join's equation vary too. *)
let regular_system rng ~linear ~k =
  let slots = [| "Rel"; "A"; "B" |] in
  let slot () = Ast.Rel slots.(Rng.int rng 3) in
  let app j =
    let order = [| 0; 1; 2 |] in
    Rng.shuffle rng order;
    Ast.(
      Construct
        ( Rel slots.(order.(0)),
          Fmt.str "s%d" j,
          [ Arg_range (Rel slots.(order.(1))); Arg_range (Rel slots.(order.(2))) ] ))
  in
  let exit () =
    if Rng.bool rng 0.5 then Ast.identity_branch (slot ())
    else
      Ast.(branch [ ("e", slot ()) ] ~target:[ field "e" "src"; field "e" "dst" ])
  in
  let step j =
    (* [l ∘ r]: the left operand's first column, the right one's second *)
    let l, r = match linear with `Right -> (slot (), app j) | `Left -> (app j, slot ()) in
    let binders = if Rng.bool rng 0.5 then [ ("l", l); ("r", r) ] else [ ("r", r); ("l", l) ] in
    let a = Ast.field "l" "dst" and b = Ast.field "r" "src" in
    Ast.branch binders
      ~target:[ Ast.field "l" "src"; Ast.field "r" "dst" ]
      ~where:(if Rng.bool rng 0.5 then Ast.eq a b else Ast.eq b a)
  in
  List.init k (fun i ->
      let exits = List.init (Rng.pick rng [ 0; 1; 1; 1; 2 ]) (fun _ -> exit ()) in
      let steps =
        step ((i + 1) mod k) :: List.init (Rng.int rng 3) (fun _ -> step (Rng.int rng k))
      in
      {
        Defs.con_name = Fmt.str "s%d" i;
        con_formal = "Rel";
        con_formal_schema = edge_schema;
        con_params = [ Defs.Rel_param ("A", edge_schema); Rel_param ("B", edge_schema) ];
        con_result = edge_schema;
        con_agg = None;
        con_body = exits @ steps;
      })

(* [app]'s value by the constructor fixpoint and by semi-naive Datalog
   over its translation, which must agree. *)
let fixpoint_and_seminaive ~msg db app =
  let catalog = Database.typecheck_env db in
  let env = Database.eval_env db in
  let fixpoint =
    match app with
    | Ast.Construct (base, c, args) ->
      Fixpoint.apply env (Option.get (catalog.constructor_of c))
        (Eval.eval_range env base) (Eval.eval_args env args)
    | _ -> assert false
  in
  let program, pred =
    Dc_datalog.Translate.of_application (Dc_datalog.Translate.context catalog) app
  in
  let datalog =
    Dc_datalog.Seminaive.query program
      (Dc_datalog.Translate.edb (fun n -> Some (Database.get db n)) program)
      pred
  in
  Alcotest.check rel_testable (msg "Fixpoint.apply = Seminaive") fixpoint
    (Relation.of_set_unchecked (Relation.schema fixpoint) datalog);
  fixpoint

(* The five binding patterns over [p]'s columns [a] and [b]: none, the
   first, the second, both, and the first with a residual. *)
let binding_patterns (a, b) node =
  Ast.
    [
      True;
      eq (field "p" a) (node ());
      eq (field "p" b) (node ());
      conj (eq (field "p" a) (node ())) (eq (field "p" b) (node ()));
      conj (eq (field "p" a) (node ())) (Cmp (Ne, field "p" b, node ()));
    ]

(* Random edges over [n] nodes, empty one time in five, with self-loops. *)
let random_label rng n =
  if Rng.int rng 5 = 0 then []
  else
    List.init (Rng.int rng (2 * n)) (fun _ -> (Rng.int rng n, Rng.int rng n))
    @ List.init (Rng.int rng 2) (fun _ -> let v = Rng.int rng n in (v, v))

let edges_relation schema pairs =
  Relation.of_list schema
    (List.sort_uniq compare pairs
    |> List.map (fun (a, b) -> Tuple.make2 (Graph_gen.node a) (Graph_gen.node b)))

let regular_oracle_seed seed =
  let rng = Rng.create seed in
  let n = 3 + Rng.int rng 8 in
  let linear = if seed mod 2 = 0 then `Right else `Left in
  let k = 2 + (seed / 2 mod 2) in
  let db = Database.create () in
  List.iter
    (fun l ->
      Database.declare db l edge_schema;
      Database.set db l (edges_relation edge_schema (random_label rng n)))
    [ "E0"; "E1"; "E2" ];
  let defs = regular_system rng ~linear ~k in
  Database.define_constructors db defs;
  let app = Ast.(Construct (Rel "E0", "s0", [ Arg_range (Rel "E1"); Arg_range (Rel "E2") ])) in
  let msg what =
    Fmt.str "seed %d, %d-state %s-linear system (%d nodes): %s" seed k
      (match linear with `Right -> "right" | `Left -> "left")
      n what
  in
  let full = fixpoint_and_seminaive ~msg db app in
  let node () = Ast.Const (Graph_gen.node (Rng.int rng (n + 1))) in
  planned_patterns ~msg db app edge_schema full
    (binding_patterns ("src", "dst") node)

(* The §3.1 scene over random Infront and Ontop, and cad_scene.dbpl's
   Infront[hidden_by(..)]{ahead(Ontop)} over its own facts and random
   ones: its selected base closes the system the same way. *)
let scene_oracle_seed seed =
  let rng = Rng.create (100 + seed) in
  let n = 3 + Rng.int rng 8 in
  let db, _ = Dc_lang.Elaborate.run_string (Oracle.example_source "cad_scene.dbpl") in
  if seed > 1 then
    List.iter
      (fun l ->
        Database.set db l
          (edges_relation (Relation.schema (Database.get db l)) (random_label rng n)))
      [ "Infront"; "Ontop" ];
  let node () =
    Ast.Const
      (if seed = 1 then Rng.pick rng (List.map Value.str [ "lamp"; "table"; "vase"; "wall"; "book" ])
       else Graph_gen.node (Rng.int rng (n + 1)))
  in
  let schema = Constructor.ahead_schema Value.TStr in
  Database.declare db "Selected" (Relation.schema (Database.get db "Infront"));
  List.iter
    (fun base ->
      let app = Ast.(Construct (base, "ahead", [ Arg_range (Rel "Ontop") ])) in
      let msg what = Fmt.str "scene seed %d, %a: %s" seed Ast.pp_range app what in
      (* the translation reads named relations: the selection is one *)
      Database.set db "Selected" (Database.query db base);
      let full =
        fixpoint_and_seminaive ~msg db
          Ast.(Construct (Rel "Selected", "ahead", [ Arg_range (Rel "Ontop") ]))
      in
      planned_patterns ~msg db app schema full (binding_patterns ("head", "tail") node))
    Ast.[ Rel "Infront"; Select (Rel "Infront", "hidden_by", [ Arg_scalar (node ()) ]) ]

let test_closure_oracles () =
  for seed = 1 to 20 do
    closure_oracle_seed seed;
    regular_oracle_seed seed;
    scene_oracle_seed seed
  done

(* A limit trips inside the closure operator: a row budget, a deadline
   and a cancel each stop the planned Edge{tcn()} over a 40-chain (820
   rows) and come back as a typed Limit error that names the operator. *)
let test_closure_operator_limits () =
  let db = make_db ~edges:(chain 40) () in
  Database.define_constructor db
    (Constructor.transitive_closure ~name:"tcn" ~linear:`Non ());
  let d =
    Planner.plan (Database.typecheck_env db)
      Ast.(Construct (Rel "Edge", "tcn", []))
  in
  Alcotest.(check string) "method" "closure operator"
    (Planner.method_name d.d_method);
  let cancelled () =
    let g = Dc_guard.Guard.create () in
    Dc_guard.Guard.cancel g;
    g
  in
  List.iter
    (fun (limit, guard) ->
      match Planner.execute (Eval.with_guard (Database.eval_env db) (guard ())) d with
      | _ -> Alcotest.failf "%s: the closure operator ran to the end" limit
      | exception e ->
        let code, text = Dc_net.Net.classify_exn e in
        Alcotest.(check string) (limit ^ ": error code") "limit"
          (Fmt.str "%a" Dc_net.Wire.pp_error_code code);
        Alcotest.(check bool)
          (Fmt.str "%s: %S names the operator" limit text)
          true
          (contains text "at operator closure tcn"))
    [
      ("row budget", fun () -> Dc_guard.Guard.create ~rows:20 ());
      ("deadline", fun () -> Dc_guard.Guard.create ~millis:0 ());
      ("cancel", cancelled);
    ]

(* Served reads against the interpreter: a server over a seeded random
   graph and the four closures; each statement shape is read first
   uncached (planned, cached) and then from its cached form with other
   literals, every answer equal to [Snapshot.query] on the snapshot it
   observed, rows and columns. *)
let test_served_differential () =
  for seed = 1 to 6 do
    let rng = Rng.create (1000 + seed) in
    let db = Database.create () in
    let nodes = 6 + Rng.int rng 10 in
    declare_random db rng "Edge" edge_schema ~nodes;
    List.iter (fun (_, d) -> Database.define_constructor db d) closures;
    let srv = Dc_server.Server.create db in
    let s = Dc_server.Server.open_session srv in
    let env = Dc_lang.Elaborate.create db in
    let shapes =
      List.concat_map
        (fun (con, _) ->
          [
            (fun _ -> Fmt.str "QUERY Edge{%s()};" con);
            (fun k -> Fmt.str {|QUERY {EACH p IN Edge{%s()}: p.src = "%s"};|} con k);
            (fun k -> Fmt.str {|QUERY {EACH p IN Edge{%s()}: "%s" = p.dst};|} con k);
          ])
        closures
      @ [
          (fun k ->
            Fmt.str
              {|QUERY {<e.src, f.dst> OF EACH e IN Edge, EACH f IN Edge: e.src = "%s" AND e.dst = f.src};|}
              k);
        ]
    in
    List.iter
      (fun shape ->
        for _ = 1 to 3 do
          let src = shape (Fmt.str "n%d" (Rng.int rng nodes)) in
          let got, version = Dc_server.Server.query_string s src in
          let snap = Database.snapshot db in
          Alcotest.(check int) "no writes" (Snapshot.version snap) version;
          let want =
            match Dc_lang.Parser.parse src with
            | [ Dc_lang.Surface.D_query r ] ->
              Snapshot.query snap
                (Dc_lang.Elaborate.with_snapshot env snap (fun () ->
                     Dc_lang.Elaborate.lower_query env r))
            | _ -> assert false
          in
          let msg = Fmt.str "seed %d: %s" seed src in
          Alcotest.check rel_testable msg want got;
          Alcotest.(check (list string))
            (msg ^ " (columns)")
            (Schema.attr_names (Relation.schema want))
            (Schema.attr_names (Relation.schema got))
        done)
      shapes;
    Dc_server.Server.close_session s;
    Dc_server.Server.shutdown srv
  done

(* A closure joined with another range: the query is not a restricted
   application, yet its closure application runs the closure operator,
   seeded from the binder's constant conjunct and named by EXPLAIN; a
   second binder over the closure produces every pair.  The
   planned answer equals the interpreter's, and it is the same through
   [dbpl run]'s QUERY and through a served read, first a cache miss and
   then a hit. *)
let closure_join_source =
  {|TYPE node = STRING;
TYPE edgerel = RELATION a, b OF RECORD a, b: node END;
VAR Chain: edgerel;
CONSTRUCTOR tcn FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <p.a, q.b> OF EACH p IN Rel{tcn()}, EACH q IN Rel{tcn()}: p.b = q.a
END tcn;
INSERT Chain VALUES ("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n3", "n4"),
  ("n4", "n5"), ("n5", "n6"), ("n6", "n7"), ("n7", "n8");
|}

let closure_join_range =
  {|{<p.a, q.b> OF EACH p IN Chain{tcn()}, EACH q IN Chain: p.a = "n0" AND q.a = p.b}|}

let test_closure_in_join () =
  let db, out =
    Dc_lang.Elaborate.run_string
      (Fmt.str "%sQUERY %s;\nEXPLAIN %s;" closure_join_source closure_join_range
         closure_join_range)
  in
  let q =
    Ast.(
      Comp
        [
          branch
            [ ("p", Construct (Rel "Chain", "tcn", [])); ("q", Rel "Chain") ]
            ~target:[ field "p" "a"; field "q" "b" ]
            ~where:(conj (eq (field "p" "a") (str "n0")) (eq (field "q" "a") (field "p" "b")));
        ])
  in
  let want = Database.query db q in
  Alcotest.(check int) "the interpreter's answer" 7 (Relation.cardinal want);
  let d = Planner.plan (Database.typecheck_env db) q in
  Alcotest.(check string) "method" "closure operator"
    (Planner.method_name d.d_method);
  Alcotest.check rel_testable "planned = interpreter" want
    (Planner.execute (Database.eval_env db) d);
  Alcotest.(check bool)
    (Fmt.str "dbpl run answers 7 tuples by the operator:@.%s" out)
    true
    (contains out "(7 tuples)"
    && contains out "method: closure operator"
    && contains out {|closure tcn over Rel (from "n0") [rows=8 probes=1]|});
  (* two binders over the closure: the bound one is seeded, the other
     produces every pair *)
  let twice =
    {|{<p.a, q.b> OF EACH p IN Chain{tcn()}, EACH q IN Chain{tcn()}: p.a = "n0" AND q.a = p.b}|}
  in
  let _, out = Dc_lang.Elaborate.run_string ~db (Fmt.str "QUERY %s;\nEXPLAIN %s;" twice twice) in
  Alcotest.(check bool)
    (Fmt.str "one seeded and one whole traversal:@.%s" out)
    true
    (contains out "(7 tuples)"
    && contains out {|closure tcn over Rel (from "n0") [rows=8 probes=1]|}
    && contains out "closure tcn over Rel (every source) [rows=36 probes=9]");
  let was = Dc_obs.Obs.on () in
  Dc_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Dc_obs.Obs.set_enabled was) @@ fun () ->
  let count result =
    Dc_obs.Obs.Counter.value
      (Dc_obs.Obs.Counter.make ~labels:[ ("result", result) ]
         "dc_server_stmt_cache_total")
  in
  let srv = Dc_server.Server.create db in
  let s = Dc_server.Server.open_session srv in
  List.iter
    (fun result ->
      let before = count result in
      let got, _ =
        Dc_server.Server.query_string s ("QUERY " ^ closure_join_range ^ ";")
      in
      Alcotest.(check int) ("served read: cache " ^ result) 1
        (count result - before);
      Alcotest.check rel_testable ("served read (" ^ result ^ ")") want
        (Relation.of_list (Relation.schema want) (Relation.to_list got)))
    [ "miss"; "hit" ];
  Dc_server.Server.close_session s;
  Dc_server.Server.shutdown srv

(* A seed restricts the query's own application of a closure only.  The
   selector [onward] keeps the edges whose source starts a path of
   [Rel{tc()}]; applied inside the query's residual, its closure must be
   the whole one, not the pairs from the query's bound source. *)
let test_closure_seed_stays_local () =
  let db = make_db () in
  Database.define_selector db
    {
      Defs.sel_name = "onward";
      sel_formal = "Rel";
      sel_formal_schema = edge_schema;
      sel_params = [];
      sel_var = "r";
      sel_pred =
        Ast.(
          Some_in
            ("q", Construct (Rel "Rel", "tc", []), eq (field "q" "src") (field "r" "src")));
    };
  let comp where =
    Ast.(Comp [ branch [ ("p", Construct (Rel "Edge", "tc", [])) ] ~where ])
  in
  let onward =
    Ast.(
      Some_in
        ("s", Select (Rel "Edge", "onward", []), eq (field "s" "src") (field "p" "dst")))
  in
  let catalog = Database.typecheck_env db in
  List.iter
    (fun (bound, size) ->
      let where = Ast.conj (Ast.eq (Ast.field "p" bound) (Ast.str "n3")) onward in
      let q = comp where in
      let want = Database.query db q in
      Alcotest.(check int) (bound ^ " bound: the interpreter's answer") size
        (Relation.cardinal want);
      let d = Planner.plan catalog q in
      Alcotest.(check string) (bound ^ " bound: method") "closure operator"
        (Planner.method_name d.d_method);
      Alcotest.check rel_testable (bound ^ " bound: planned = interpreter") want
        (Planner.execute (Database.eval_env db) d);
      let lifted, params = lift where in
      let form =
        Planner.prepare catalog
          ~params:(List.map (fun (p, v) -> (p, Value.type_of v)) params)
          (comp lifted)
      in
      Alcotest.check rel_testable (bound ^ " bound: prepared = interpreter") want
        (Planner.run_prepared form (Database.eval_env db) (List.map snd params)))
    [ ("src", 2); ("dst", 3) ]

(* Near misses: each is declined with a planning note and stays direct,
   answering as the interpreter does. *)
let near_miss_source =
  {|
CONSTRUCTOR extra FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <e.src, p.dst> OF EACH e IN Rel, EACH p IN Rel{extra()}:
        e.dst = p.src AND e.src # p.dst
END extra;
CONSTRUCTOR swapped FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <e.src, p.dst> OF EACH e IN Rel, EACH p IN Rel{swapped()}: e.src = p.src
END swapped;
CONSTRUCTOR noloop FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: e.src # e.dst,
      <e.src, p.dst> OF EACH e IN Rel, EACH p IN Rel{noloop()}: e.dst = p.src
END noloop;
CONSTRUCTOR keyed FOR Rel: edgerel (): keyedrel;
BEGIN EACH e IN Rel: TRUE,
      <e.src, p.dst> OF EACH e IN Rel, EACH p IN Rel{keyed()}: e.dst = p.src
END keyed;
CONSTRUCTOR twohop FOR Rel: edgerel (): edgerel;
BEGIN <e.src, f.dst> OF EACH e IN Rel, EACH f IN Rel: e.dst = f.src,
      <e.src, p.dst> OF EACH e IN Rel, EACH p IN Rel{twohop()}: e.dst = p.src
END twohop;
CONSTRUCTOR mixed FOR Rel: edgerel (Other: edgerel): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <e.src, p.dst> OF EACH e IN Rel, EACH p IN Rel{mixed(Other)}: e.dst = p.src,
      <p.src, o.dst> OF EACH p IN Rel{mixed(Other)}, EACH o IN Other: p.dst = o.src
END mixed;
CONSTRUCTOR ternary FOR Rel: edgerel (): triple;
BEGIN <e.src, e.dst, e.dst> OF EACH e IN Rel: TRUE,
      <e.src, p.mid, p.dst> OF EACH e IN Rel, EACH p IN Rel{ternary()}: e.dst = p.src
END ternary;
|}

(* A right-linear closure whose recursive application passes a
   comprehension, not a name, as its argument. *)
let computed_argument () =
  let def = Constructor.transitive_closure ~name:"computed" () in
  let other = Ast.(Comp [ branch [ ("o", Rel "Other") ] ~where:(Cmp (Ne, field "o" "src", field "o" "dst")) ]) in
  {
    def with
    Defs.con_params = [ Defs.Rel_param ("Other", edge_schema) ];
    con_body =
      Ast.
        [
          identity_branch (Rel "Rel");
          branch
            [ ("e", Rel "Rel"); ("p", Construct (Rel "Rel", "computed", [ Arg_range other ])) ]
            ~target:[ field "e" "src"; field "p" "dst" ]
            ~where:(eq (field "e" "dst") (field "p" "src"));
        ];
  }

let plan_direct_with_note db q needle =
  let d = Planner.plan (Database.typecheck_env db) q in
  let text = Fmt.str "%a" Planner.explain d in
  Alcotest.(check string)
    (Fmt.str "%a stays direct" Ast.pp_range q)
    "direct fixpoint" (Planner.method_name d.d_method);
  Alcotest.(check bool)
    (Fmt.str "%a: note %S in@.%s" Ast.pp_range q needle text)
    true (contains text needle);
  d

let test_closure_near_misses () =
  let db = make_db ~edges:(chain 6 @ [ pair "n6" "n6" ]) () in
  Database.declare db "Chain" edge_schema;
  let _, _ =
    Dc_lang.Elaborate.run_string ~db
      ("TYPE keyedrel = RELATION src OF RECORD src, dst: STRING END;\n"
     ^ "TYPE edgerel = RELATION src, dst OF RECORD src, dst: STRING END;\n"
     ^ "TYPE triple = RELATION src, mid, dst OF RECORD src, mid, dst: STRING END;\n"
     ^ near_miss_source)
  in
  Database.define_constructor db (computed_argument ());
  let app ?(args = []) c = Ast.(Construct (Rel "Edge", c, args)) in
  let edge = [ Ast.Arg_range (Ast.Rel "Edge") ] in
  List.iter
    (fun (app, why) ->
      let c = match app with Ast.Construct (_, c, _) -> c | _ -> assert false in
      let d =
        plan_direct_with_note db app
          (Fmt.str "regular-system recogniser declined %s: %s" c why)
      in
      Alcotest.check rel_testable (c ^ ": planned = interpreter")
        (Database.query db app)
        (Planner.execute (Database.eval_env db) d))
    [
      (app "extra", "branch 2 has a conjunct besides the join");
      (app "swapped", "branch 2 does not join on the composed columns");
      (app "noloop", "branch 1 restricts its exit Rel");
      (app "twohop", "branch 1 composes two base ranges: an exit that is not a base range");
      ( app ~args:edge "mixed",
        "mixed linearity: mixed's branch 2 is right-linear, mixed's branch 3 left-linear" );
      (app "ternary", "the result of ternary is not binary");
      (app ~args:edge "computed", "computed's branch 2 applies Rel{computed({EACH o IN Other:");
    ];
  (* a partial result key, bound or not: direct, and the key check still
     fires — magic sets would build part of the extent, and the key check
     needs all of it *)
  List.iter
    (fun q ->
      let d = plan_direct_with_note db q "result key of keyed is partial" in
      match Planner.execute (Database.eval_env db) d with
      | _ -> Alcotest.failf "%a: the key check did not fire" Ast.pp_range q
      | exception Relation.Key_violation _ -> ())
    [ app "keyed"; restricted "keyed" ]

(* An acyclic constructor keyed on [src] whose body yields two rows per
   [src]: inlining it (pushed or decompiled) would evaluate only the rows
   a query keeps, so the planner keeps it direct and the key check fires
   on a restriction to a non-key column and on a join, through
   [dbpl run]'s QUERY and through a served statement, cached or not. *)
let test_acyclic_partial_key () =
  let db, _ =
    Dc_lang.Elaborate.run_string
      {|
TYPE edgerel = RELATION src, dst OF RECORD src, dst: STRING END;
TYPE keyedrel = RELATION src OF RECORD src, dst: STRING END;
VAR Edge: edgerel;
CONSTRUCTOR fanout FOR Rel: edgerel (): keyedrel;
BEGIN EACH e IN Rel: TRUE END fanout;
INSERT Edge VALUES ("s", "x"), ("s", "y"), ("t", "x");
|}
  in
  let queries =
    [
      {|QUERY {EACH r IN Edge{fanout()}: r.dst = "x"};|};
      {|QUERY {EACH r IN Edge{fanout()}: r.dst = "y"};|};
      {|QUERY {<r.src, e.dst> OF EACH r IN Edge{fanout()}, EACH e IN Edge: r.dst = e.src};|};
      {|QUERY {<r.src, e.dst> OF EACH r IN Edge{fanout()}, EACH e IN Edge: r.src = e.src AND e.dst = "x"};|};
    ]
  in
  let key_violation what f =
    match f () with
    | _ -> Alcotest.failf "%s: the key check did not fire" what
    | exception Relation.Key_violation _ -> ()
  in
  (* the interpreter checks the constructed value's key *)
  key_violation "Database.query Edge{fanout}" (fun () ->
      Database.query db Ast.(Construct (Rel "Edge", "fanout", [])));
  List.iter
    (fun src ->
      key_violation ("dbpl run " ^ src) (fun () ->
          Dc_lang.Elaborate.run_string ~db src))
    queries;
  let srv = Dc_server.Server.create db in
  let s = Dc_server.Server.open_session srv in
  (* twice: a miss plans and caches the form, the second read hits it *)
  for _ = 1 to 2 do
    List.iter
      (fun src ->
        key_violation ("served " ^ src) (fun () ->
            Dc_server.Server.query_string s src))
      queries
  done;
  Dc_server.Server.close_session s;
  Dc_server.Server.shutdown srv

(* shortest's MIN head: the aggregate route, whatever is bound *)
let test_closure_near_miss_aggregate () =
  let db, _ = Dc_lang.Elaborate.run_string (Oracle.example_source "shortest_path.dbpl") in
  List.iter
    (fun q ->
      let d =
        plan_direct_with_note db q
          "aggregate constructor shortest reached: direct (aggregate route)"
      in
      Alcotest.check rel_testable "shortest: planned = interpreter"
        (Database.query db q)
        (Planner.execute (Database.eval_env db) d))
    Ast.
      [
        Construct (Rel "Road", "shortest", []);
        Comp
          [
            branch
              [ ("p", Construct (Rel "Road", "shortest", [])) ]
              ~where:(eq (field "p" "src") (str "n0"));
          ];
      ]

(* A point read of a MATERIALIZEd Edge{tc()} is left to the view: direct,
   answered from the extent with no fixpoint rounds, over the database
   and over a snapshot. *)
let test_closure_point_read_of_view () =
  let db, _ = tc_view_db (chain 8) in
  let q = restricted "tc" in
  let d = plan_direct_with_note db q "is answered by a maintained view" in
  List.iter
    (fun (name, env) ->
      let trace = Dc_exec.Ir.Trace.create () in
      let got = Planner.execute (Eval.with_trace env trace) d in
      Alcotest.check rel_testable (name ^ ": served = interpreter")
        (Database.query db q) got;
      Alcotest.(check int) (name ^ ": no fixpoint rounds") 0
        (List.length (Dc_exec.Ir.Trace.rounds trace)))
    [
      ("database", Database.eval_env db);
      ("snapshot", Snapshot.eval_env (Database.snapshot db));
    ]

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dc_compile"
    [
      ("depgraph", [ Alcotest.test_case "sccs" `Quick test_depgraph ]);
      ( "quant-graph",
        [
          Alcotest.test_case "recursive detected" `Quick
            test_quant_graph_recursive;
          Alcotest.test_case "mutual cycle through two heads" `Quick
            test_quant_graph_mutual;
          Alcotest.test_case "acyclic detected" `Quick test_quant_graph_acyclic;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "inline selector" `Quick test_inline_selector;
          Alcotest.test_case "inline constructor" `Quick test_inline_constructor;
          Alcotest.test_case "N1 flatten" `Quick test_flatten_n1;
          Alcotest.test_case "N2/N3 flatten" `Quick test_flatten_n2_n3;
        ] );
      ( "planner",
        [
          Alcotest.test_case "pushed (non-recursive)" `Quick
            test_push_nonrecursive;
          Alcotest.test_case "magic (recursive + constant)" `Quick
            test_magic_route;
          Alcotest.test_case "magic with residual" `Quick
            test_magic_with_residual;
          Alcotest.test_case "direct (no restriction)" `Quick test_direct_route;
          Alcotest.test_case "decompiled (selector over view)" `Quick
            test_decompiled_route;
          Alcotest.test_case "explain" `Quick test_explain_output;
        ] );
      ( "access-paths",
        [
          Alcotest.test_case "logical = physical" `Quick test_access_paths_agree;
          Alcotest.test_case "unsupported predicate" `Quick
            test_physical_unsupported;
        ] );
      ( "plan",
        [
          Alcotest.test_case "compiled for pushed" `Quick
            test_plan_compiles_pushed;
          Alcotest.test_case "ablation agrees" `Quick
            test_plan_ablation_same_result;
          Alcotest.test_case "rejects applications" `Quick
            test_plan_rejects_applications;
          Alcotest.test_case "correlated step" `Quick test_plan_correlated;
          Alcotest.test_case "binder reordering" `Quick
            test_plan_reorders_binders;
          Alcotest.test_case "plans pinned" `Quick test_plans_pinned;
          Alcotest.test_case "acyclic EXPLAIN text" `Quick
            test_explain_acyclic_text;
          Alcotest.test_case "planned = direct, both envs" `Quick
            test_planner_differential;
        ] );
      ( "closure",
        [
          Alcotest.test_case "operator = direct, both envs" `Quick
            test_closure_differential;
          Alcotest.test_case "operator = Fixpoint.apply = Seminaive" `Quick
            test_closure_oracles;
          Alcotest.test_case "limits trip in the operator" `Quick
            test_closure_operator_limits;
          Alcotest.test_case "served = direct, cached and uncached" `Quick
            test_served_differential;
          Alcotest.test_case "closure in a join" `Quick test_closure_in_join;
          Alcotest.test_case "a seed stays with its application" `Quick
            test_closure_seed_stays_local;
          Alcotest.test_case "correlated quantifier range" `Quick
            test_correlated_quantifier_range;
          Alcotest.test_case "near misses stay direct" `Quick
            test_closure_near_misses;
          Alcotest.test_case "acyclic partial key stays direct" `Quick
            test_acyclic_partial_key;
          Alcotest.test_case "aggregate head stays direct" `Quick
            test_closure_near_miss_aggregate;
          Alcotest.test_case "point read of a view" `Quick
            test_closure_point_read_of_view;
        ] );
      ( "prepared",
        [
          Alcotest.test_case "compiled form" `Quick test_prepared_nonrecursive;
          Alcotest.test_case "recursive method" `Quick
            test_prepared_recursive_method;
          Alcotest.test_case "argument checks" `Quick
            test_prepared_argument_checks;
        ] );
      ( "materialize",
        [
          Alcotest.test_case "insert maintains" `Quick test_materialize_insert;
          Alcotest.test_case "DRed insert is delta-proportional" `Quick
            test_materialize_insert_dred;
          Alcotest.test_case "random growth" `Quick
            test_materialize_insert_random;
          Alcotest.test_case "delete maintains" `Quick test_materialize_delete;
        ] );
      ("properties", qcheck [ prop_planner_agrees; prop_plan_equals_direct ]);
    ]
