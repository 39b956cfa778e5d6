(* Genealogy: ancestors and same-generation cousins, plus the §3.4
   equivalence — the same rules run as a constructor system and as the
   translated Horn-clause program, with identical results.

     dune exec examples/genealogy.exe *)

open Dc_relation
open Dc_calculus
open Dc_core

let p a b = Tuple.make2 (Value.Str a) (Value.Str b)

let edge = Constructor.binary_schema Value.TStr

let () =
  let db = Database.create () in
  (* Parent(child, parent) for a three-generation family *)
  Database.declare db "Parent" edge;
  Database.insert_all db "Parent"
    [
      p "alice" "carol"; p "bob" "carol";      (* siblings *)
      p "carol" "erika"; p "dan" "erika";      (* carol & dan siblings *)
      p "frank" "dan";                         (* frank is alice's cousin-ish *)
    ];

  (* ancestor = transitive closure of Parent *)
  Database.define_constructor db
    (Constructor.transitive_closure ~name:"ancestor" ());
  Fmt.pr "=== Ancestors: Parent{ancestor} ===@.";
  let ancestors = Database.query db Ast.(Construct (Rel "Parent", "ancestor", [])) in
  Fmt.pr "%a@." Relation.pp_table ancestors;

  (* same generation: sg(x,y) <- sibling(x,y);
                      sg(x,y) <- parent(x,u), sg(u,v), parent-inv(v,y) *)
  Database.declare db "Sibling" edge;
  Database.insert_all db "Sibling" [ p "carol" "dan" ];
  Database.declare db "Child" edge;
  Database.set db "Child"
    (Relation.fold
       (fun t acc ->
         Relation.add_unchecked (Tuple.make2 (Tuple.get t 1) (Tuple.get t 0)) acc)
       (Database.get db "Parent")
       (Relation.empty edge));
  Database.define_constructor db (Constructor.same_generation ());
  Fmt.pr "@.=== Same generation (cousins) ===@.";
  let sg =
    Database.query db
      Ast.(
        Construct
          ( Rel "Parent",
            "same_generation",
            [ Arg_range (Rel "Sibling"); Arg_range (Rel "Child") ] ))
  in
  Fmt.pr "%a@." Relation.pp_table sg;
  assert (Relation.mem (p "alice" "frank") sg);

  (* §3.4: run the ancestor rules as a Horn-clause program and compare *)
  Fmt.pr "@.=== Lemma 3.4: same query as Horn clauses ===@.";
  let app = Ast.(Construct (Rel "Parent", "ancestor", [])) in
  let program, query_pred =
    Dc_datalog.Translate.of_application
      (Dc_datalog.Translate.context (Database.typecheck_env db))
      app
  in
  Fmt.pr "translated program:@.%a@." Dc_datalog.Syntax.pp_program program;
  let edb =
    Dc_datalog.Translate.edb (Snapshot.get (Database.snapshot db)) program
  in
  let horn = Dc_datalog.Seminaive.query program edb query_pred in
  let horn_rel =
    Dc_datalog.Facts.TS.fold Relation.add_unchecked horn (Relation.empty edge)
  in
  Fmt.pr "@.bottom-up Horn result equals the constructor result: %b@."
    (Relation.equal ancestors horn_rel);
  assert (Relation.equal ancestors horn_rel);

  (* and top-down, PROLOG style (terminates here: the data is acyclic) *)
  let stats = Dc_datalog.Topdown.fresh_stats () in
  let sld = Dc_datalog.Topdown.query ~stats program edb query_pred 2 in
  Fmt.pr "SLD resolution found %d tuples in %d resolution steps@."
    (List.length sld) stats.Dc_datalog.Topdown.resolution_steps
