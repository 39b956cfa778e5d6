(* Network reachability dashboard: the §4 runtime machinery working
   together on a live workload —

   - a materialized constructed relation (the reachability closure) kept
     up to date incrementally as links are added (Ivm, [ShTZ 84]);
   - a prepared query form ("which hosts can S reach?") compiled once with
     its parameter as a dummy constant and executed per request;
   - a physical access path serving the same lookups from a partition of
     the materialized closure.

     dune exec examples/network_dashboard.exe *)

open Dc_relation
open Dc_calculus
open Dc_core
open Dc_workload
module Ivm = Dc_ivm.Ivm

let host i = Graph_gen.node i

let () =
  (* a random sparse network *)
  let db = Database.create () in
  Database.declare db "Link" Graph_gen.edge_schema;
  Database.set db "Link"
    (Algebra.rename [ "src"; "dst" ]
       (Graph_gen.random_graph ~seed:2026 ~nodes:40 ~edges:70));
  (* left-linear closure: delta maintenance propagates forward *)
  Database.define_constructor db
    (Constructor.transitive_closure ~name:"reach" ~linear:`Left ());

  Fmt.pr "=== Materialize the reachability closure ===@.";
  let view = Ivm.materialize db ~constructor:"reach" ~base:"Link" ~args:[] in
  Fmt.pr "links: %d, reachable pairs: %d (%s)@."
    (Relation.cardinal (Database.get db "Link"))
    (Ivm.cardinal view) (Ivm.plan_kind view);

  Fmt.pr "@.=== Prepared form: reachable-from(S) ===@.";
  let form =
    Ast.(
      Comp
        [
          branch
            [ ("r", Construct (Rel "Link", "reach", [])) ]
            ~where:(eq (field "r" "src") (Param "S"));
        ])
  in
  let prepared =
    Dc_compile.Planner.prepare (Database.typecheck_env db)
      ~params:[ ("S", Value.TStr) ] form
  in
  Fmt.pr "%s@." (Dc_compile.Planner.prepared_description prepared);
  List.iter
    (fun h ->
      let reachable =
        Dc_compile.Planner.run_prepared prepared (Database.eval_env db) [ host h ]
      in
      Fmt.pr "%s reaches %d host(s)@." (Value.to_string (host h)) (Relation.cardinal reachable))
    [ 0; 7; 23 ];

  Fmt.pr "@.=== A new link arrives: n0 -> n23 ===@.";
  Ivm.reset_reports ();
  Database.insert db "Link" (Tuple.make2 (host 0) (host 23));
  Fmt.pr "reachable pairs now: %d@." (Ivm.cardinal view);
  List.iter (Fmt.pr "%a@." Ivm.pp_report) (Ivm.reports ());
  let reachable =
    Dc_compile.Planner.run_prepared prepared (Database.eval_env db) [ host 0 ]
  in
  Fmt.pr "n0 now reaches %d host(s)@." (Relation.cardinal reachable);

  Fmt.pr "@.=== Serving lookups from a physical access path (4) ===@.";
  let from_selector =
    {
      Defs.sel_name = "from";
      sel_formal = "Rel";
      sel_formal_schema = Graph_gen.edge_schema;
      sel_params = [ Defs.Scalar_param ("S", Value.TStr) ];
      sel_var = "r";
      sel_pred = Ast.(eq (field "r" "src") (Param "S"));
    }
  in
  let path =
    Dc_compile.Access_path.Physical.build from_selector (Ivm.value view)
  in
  let t0 = Unix.gettimeofday () in
  let total = ref 0 in
  for h = 0 to 39 do
    total :=
      !total
      + Relation.cardinal
          (Dc_compile.Access_path.Physical.apply path [ Eval.V_scalar (host h) ])
  done;
  Fmt.pr "40 lookups, %d pairs, %.2f ms total@." !total
    ((Unix.gettimeofday () -. t0) *. 1000.);
  assert (!total = Ivm.cardinal view)
