(* Quickstart: the paper's constructs through the OCaml API.

     dune exec examples/quickstart.exe

   Walks through: declaring typed relations (§2.2), a selector (§2.3), a
   recursive constructor with least-fixpoint semantics (§3.1-3.2), the
   positivity check (§3.3), and the query compiler's EXPLAIN (§4). *)

open Dc_relation
open Dc_calculus
open Dc_core

let section title = Fmt.pr "@.=== %s ===@." title

let () =
  section "1. Typed relations with key constraints (2.2)";
  let edge_schema = Constructor.binary_schema Value.TStr in
  let db = Database.create () in
  Database.declare db "Edge" edge_schema;
  Database.insert_all db "Edge"
    (List.map
       (fun (a, b) -> Tuple.make2 (Value.Str a) (Value.Str b))
       [ ("a", "b"); ("b", "c"); ("c", "d"); ("x", "y") ]);
  Fmt.pr "Edge =@.%a@." Relation.pp_table (Database.get db "Edge");

  section "2. A selector names a predicate-defined subrelation (2.3)";
  Database.define_selector db
    {
      Defs.sel_name = "from";
      sel_formal = "Rel";
      sel_formal_schema = edge_schema;
      sel_params = [ Defs.Scalar_param ("Obj", Value.TStr) ];
      sel_var = "r";
      sel_pred = Ast.(eq (field "r" "src") (Param "Obj"));
    };
  let selected =
    Database.query db
      Ast.(Select (Rel "Edge", "from", [ Arg_scalar (str "b") ]))
  in
  Fmt.pr "Edge[from(\"b\")] =@.%a@." Relation.pp_table selected;

  section "3. A recursive constructor: transitive closure (3.1)";
  (* CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
     BEGIN EACH r IN Rel: TRUE,
           <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel{tc}: f.dst = b.src
     END tc *)
  Database.define_constructor db (Constructor.transitive_closure ());
  let closure = Database.query db Ast.(Construct (Rel "Edge", "tc", [])) in
  Fmt.pr "Edge{tc} =@.%a@." Relation.pp_table closure;
  (match Database.last_stats db with
  | Some st -> Fmt.pr "fixpoint: %a@." Fixpoint.pp_stats st
  | None -> ());

  section "4. Selector and constructor compose (3.1)";
  let composed =
    Database.query db
      Ast.(
        Construct (Select (Rel "Edge", "from", [ Arg_scalar (str "b") ]), "tc", []))
  in
  Fmt.pr "Edge[from(\"b\")]{tc} =@.%a@." Relation.pp_table composed;

  section "5. The positivity check rejects non-monotone recursion (3.3)";
  (match Database.define_constructor db (Constructor.nonsense ()) with
  | () -> assert false
  | exception Database.Error msg -> Fmt.pr "rejected: %s@." msg);

  section "6. The query compiler picks evaluation methods (4)";
  let restricted =
    Ast.(
      Comp
        [
          branch
            [ ("r", Construct (Rel "Edge", "tc", [])) ]
            ~where:(eq (field "r" "src") (str "a"));
        ])
  in
  let decision =
    Dc_compile.Planner.plan (Database.typecheck_env db) restricted
  in
  Fmt.pr "%a@." Dc_compile.Planner.explain decision;
  Fmt.pr "result =@.%a@." Relation.pp_table
    (Dc_compile.Planner.execute (Database.eval_env db) decision)
