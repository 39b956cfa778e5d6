(* Resolution of a constructor application Base{c(args)} (paper §3.2):
   the one place that decides how an application is evaluated.  The
   order is serve → aggregate → fixpoint:

   1. serve: a maintained view whose extent matches the application
      answers it without evaluation;
   2. aggregate: a system whose reachable constructors include an
      aggregated definition (MIN/MAX/COUNT/SUM head) is translated to
      Horn clauses (§3.4) and run by the aggregate-aware semi-naive
      engine — per-group bounds inside the fixpoint, COUNT/SUM strata
      above their bodies.  The branch-at-a-time fixpoint has no
      per-group accumulator and would re-emit every displaced bound;
   3. fixpoint: everything else runs {!Fixpoint.apply}, whose Opaque
      path also covers what [Translate] cannot express (OR, SOME/ALL,
      selector ranges, nested bases).

   {!Snapshot.eval_env} installs this as the [on_construct] hook of
   both states, the writer's {!Database} working set and a published
   snapshot; they differ only in where the views serve from.  Every route runs under the environment's guard. *)

open Dc_relation
open Dc_calculus
module Datalog = Dc_datalog

type serve =
  Defs.constructor_def -> Relation.t -> Eval.arg_value list -> Relation.t option

(* Does the constructor system reachable from [def] contain an
   aggregated definition? *)
let has_aggregate lookup (def : Defs.constructor_def) =
  let seen = Hashtbl.create 8 in
  let rec walk (d : Defs.constructor_def) =
    (not (Hashtbl.mem seen d.con_name))
    && begin
         Hashtbl.replace seen d.con_name ();
         d.con_agg <> None
         || List.exists
              (fun c -> Option.fold ~none:false ~some:walk (lookup c))
              (Positivity.dependencies d)
       end
  in
  walk def

(* Names under which the (already evaluated) base relation and relation
   arguments enter the translation as global relations.  The prefix
   cannot collide with user relations: the surface grammar rejects
   leading underscores. *)
let base_name = "__agg_base"

let aggregate ~relation (env : Eval.env) (def : Defs.constructor_def) base args
    =
  let named =
    List.mapi
      (fun i (a : Eval.arg_value) ->
        match a with
        | Eval.V_scalar v -> (Ast.Arg_scalar (Ast.Const v), None)
        | Eval.V_rel r ->
          let n = Fmt.str "__agg_arg%d" i in
          (Ast.Arg_range (Ast.Rel n), Some (n, r)))
      args
  in
  let extra = (base_name, base) :: List.filter_map snd named in
  let lookup n =
    match List.assoc_opt n extra with Some r -> Some r | None -> relation n
  in
  let catalog =
    {
      (Typecheck.env []) with
      schema_of_rel = (fun n -> Option.map Relation.schema (lookup n));
      constructor_of = env.hooks.constructor_def;
    }
  in
  let program, pred, aggs =
    Datalog.Translate.of_application_full
      (Datalog.Translate.context catalog)
      (Ast.Construct (Ast.Rel base_name, def.con_name, List.map fst named))
  in
  let store =
    Datalog.Seminaive.run ~guard:env.guard ~aggs program
      (Datalog.Translate.edb lookup program)
  in
  let rel = Datalog.Facts.to_relation def.con_result store pred in
  assert (Relation.for_all (Tuple.well_typed def.con_result) rel);
  rel

let application ~relation ~serve ~strategy ?on_stats
    (env : Eval.env) base def args =
  match serve def base args with
  | Some value -> value
  | None ->
    if has_aggregate env.hooks.constructor_def def then
      aggregate ~relation env def base args
    else begin
      let stats = Fixpoint.fresh_stats () in
      let value = Fixpoint.apply ~strategy ~stats env def base args in
      Option.iter (fun record -> record stats) on_stats;
      Option.iter
        (fun tr -> Dc_exec.Ir.Trace.set_rounds tr (Fixpoint.round_log stats))
        env.trace;
      value
    end
