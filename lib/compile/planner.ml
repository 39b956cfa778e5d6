(* The query-compilation level of paper §4: given a query form over
   selected/constructed relations, choose an evaluation method.

   The decision procedure follows the paper:
   1. build the constructor dependency graph (type-checking level) and the
      augmented quant graph of the query;
   2. acyclic applications are decompiled into subqueries on base relations
      (view optimization, rules N1–N3, Cases 1–3 pushdown);
   3. cyclic subgraphs get a fixpoint plan; when the query restricts the
      constructed relation by constants, the capture-rule path (magic
      sets over the translated Horn program) propagates the constants into
      the fixpoint. *)

open Dc_relation
open Dc_calculus
open Dc_core

type method_ =
  | Direct (* evaluate as written: LFP of the application system *)
  | Decompiled of Ast.range (* inlined as a view (acyclic) *)
  | Pushed of Ast.range (* restriction distributed over branches *)
  | Magic of {
      program : Dc_datalog.Syntax.program;
      query : Dc_datalog.Syntax.atom;
      schema : Schema.t;
      residual : Ast.formula; (* conjuncts magic could not absorb *)
      var : Ast.var;
    }

type decision = {
  d_query : Ast.range;
  d_method : method_;
  d_plan : Plan.t option; (* physical plan for Decompiled/Pushed methods *)
  d_quant_graph : Quant_graph.t;
  d_recursive : bool;
  d_notes : string list;
}

let method_name = function
  | Direct -> "direct fixpoint"
  | Decompiled _ -> "decompiled view"
  | Pushed _ -> "pushed restriction"
  | Magic _ -> "magic (capture rule)"

(* ------------------------------------------------------------------ *)

let translate_ctx db =
  {
    Dc_datalog.Translate.lookup_constructor = Database.constructor db;
    schema_of =
      (fun n ->
        match Database.get db n with
        | r -> Some (Relation.schema r)
        | exception Database.Error _ -> None);
  }

let plan db (query : Ast.range) =
  Dc_obs.Obs.Span.timed "plan" @@ fun () ->
  Database.check_query db query;
  let defs =
    List.filter_map (Database.constructor db)
      (List.sort_uniq String.compare
         (List.map (fun (a : Vars.app) -> a.app_con) (Vars.apps_of_range query)
         @ List.concat_map
             (fun (a : Vars.app) ->
               match Database.constructor db a.app_con with
               | Some d ->
                 List.map
                   (fun (a' : Vars.app) -> a'.app_con)
                   (Vars.apps_of_branches d.con_body)
               | None -> [])
             (Vars.apps_of_range query)))
  in
  (* close over transitive dependencies *)
  let rec closure acc =
    let more =
      List.concat_map
        (fun (d : Defs.constructor_def) ->
          List.filter_map
            (fun c ->
              if List.exists (fun (d : Defs.constructor_def) -> d.con_name = c) acc
              then None
              else Database.constructor db c)
            (Positivity.dependencies d))
        acc
    in
    if more = [] then acc else closure (acc @ more)
  in
  let defs = closure defs in
  let dep = Depgraph.build defs in
  let graph = Quant_graph.build ~lookup:(Database.constructor db) query in
  let recursive = Quant_graph.is_recursive graph in
  let notes = ref [] in
  let note fmt = Fmt.kstr (fun s -> notes := s :: !notes) fmt in
  let schema_of_range r =
    (* used by pushdown Case 1 to map attributes positionally *)
    Eval.range_schema (Database.eval_env db) [] r
  in
  let method_ =
    match Pushdown.restricted_application query with
    | Some (v, (Ast.Construct (_, c, _) as app), where) -> (
      let bindings, residual = Pushdown.constant_bindings v where in
      if not (Depgraph.is_recursive dep c) then begin
        (* acyclic application: decompile + push the whole restriction *)
        match
          Pushdown.push_nonrecursive
            ~constructor_of:(Database.constructor db)
            ~schema_of_range v app where
        with
        | pushed ->
          note "constructor %s acyclic: decompiled, restriction pushed" c;
          Pushed (Rewrite.flatten_range pushed)
        | exception Pushdown.Not_applicable msg ->
          note "pushdown not applicable (%s): decompiling only" msg;
          Decompiled
            (Rewrite.decompile ~schema_of:schema_of_range
               ~selector_of:(Database.selector db)
               ~constructor_of:(Database.constructor db)
               ~is_recursive:(Depgraph.is_recursive dep)
               query)
      end
      else if bindings <> [] then begin
        match Database.constructor db c with
        | None -> Direct
        | Some def -> (
          match
            Pushdown.magic_query ~ctx:(translate_ctx db)
              ~schema:def.con_result app bindings
          with
          | program, q ->
            note
              "recursive cycle through %s with %d constant binding(s): \
               capture rule (magic sets)"
              c (List.length bindings);
            Magic
              {
                program;
                query = q;
                schema = def.con_result;
                residual = Ast.conj_list residual;
                var = v;
              }
          | exception Dc_datalog.Translate.Unsupported msg ->
            note "translation unsupported (%s): direct fixpoint" msg;
            Direct)
      end
      else begin
        note "recursive application without constant restriction: fixpoint";
        Direct
      end)
    | Some (_, _, _) | None ->
      if recursive then begin
        note "recursive quant graph: fixpoint evaluation";
        Direct
      end
      else begin
        let has_defs =
          Vars.apps_of_range query <> []
          ||
          match query with
          | Ast.Select _ -> true
          | _ -> Rewrite.flatten_range query <> query
        in
        if has_defs then begin
          note "acyclic query: full decompilation and view optimization";
          Decompiled
            (Rewrite.decompile ~schema_of:schema_of_range
               ~selector_of:(Database.selector db)
               ~constructor_of:(Database.constructor db)
               ~is_recursive:(Depgraph.is_recursive dep)
               query)
        end
        else Direct
      end
  in
  let plan_of_method =
    match method_ with
    | Decompiled q | Pushed q -> (
      let schema_of_rel n =
        match Database.get db n with
        | r -> Relation.schema r
        | exception Database.Error msg -> raise (Plan.Not_compilable msg)
      in
      match Plan.of_range ~schema_of_rel q with
      | p ->
        note "compiled to a physical plan (%d branch pipeline(s))"
          (List.length p.Plan.p_branches);
        Some p
      | exception Plan.Not_compilable msg ->
        note "not compilable to a static plan (%s): interpreting" msg;
        None)
    | Direct | Magic _ -> None
  in
  {
    d_query = query;
    d_method = method_;
    d_plan = plan_of_method;
    d_quant_graph = graph;
    d_recursive = recursive;
    d_notes = List.rev !notes;
  }

(* ------------------------------------------------------------------ *)
(* Runtime level: execute a decision. *)

let edb_for db program =
  Dc_datalog.Syntax.SS.fold
    (fun pred edb ->
      match Database.get db pred with
      | rel -> Dc_datalog.Facts.of_relation pred rel edb
      | exception Database.Error _ -> edb)
    (Dc_datalog.Syntax.edb_preds program)
    (Dc_datalog.Facts.empty ())

let execute ?use_indexes ?trace ?guard ?datalog_stats db (d : decision) =
  match d.d_method, d.d_plan with
  | (Decompiled _ | Pushed _), Some plan ->
    Database.coerce
      (Dc_calculus.Eval.range_schema (Database.eval_env db) [] d.d_query)
      (Plan.run ?use_indexes (Database.eval_env ?trace ?guard db) plan)
  | Direct, _ -> Database.query ?trace ?guard db d.d_query
  | (Decompiled q | Pushed q), None -> Database.query ?trace ?guard db q
  | Magic { program; query; schema; residual; var }, _ ->
    let edb = edb_for db program in
    let guard =
      match guard with
      | Some g -> g
      | None -> Dc_guard.Guard.of_limits (Database.limits db)
    in
    let result =
      Pushdown.run_magic ~guard ?stats:datalog_stats ?trace ~edb ~schema
        program query
    in
    if residual = Ast.True then result
    else
      let env = Database.eval_env db in
      Relation.filter
        (fun t ->
          Eval.eval_formula (Eval.bind_var env var t schema) residual)
        result

let plan_and_execute db query = execute db (plan db query)

(* ------------------------------------------------------------------ *)
(* Prepared query forms.

   "Database programming languages are frequently used to implement
   higher-level interfaces and therefore contain only incompletely
   specified query forms" (§4).  A prepared form is a query with scalar
   parameter placeholders, compiled once — the paper's logical access
   path: "a compiled procedure with dummy constants" — and executed many
   times with actual values.

   A form reads the catalog (relation schemas, selectors, constructors)
   through a {!Typecheck.env}, which both {!Database.typecheck_env} and
   {!Snapshot.typecheck_env} provide, and holds only catalog-level data:
   it is bound to an evaluation environment, and so to relation values,
   at run time. *)

type route =
  | Compiled of Plan.t
  | Interpreted of Ast.range

type prepared = {
  pr_params : (string * Dc_relation.Value.ty) list;
  pr_schema : Schema.t; (* the uncompiled evaluation's result schema *)
  pr_route : route;
}

let prepared_description p =
  match p.pr_route with
  | Compiled plan -> Fmt.str "compiled plan:@.%a" Plan.pp plan
  | Interpreted _ -> "interpreted form (constructor or selector application)"

let rec application_free = function
  | Ast.Rel _ -> true
  | Ast.Select _ | Ast.Construct _ -> false
  | Ast.Comp branches ->
    List.for_all
      (fun (b : Ast.branch) ->
        List.for_all (fun (_, r) -> application_free r) b.binders
        && application_free_formula b.where)
      branches

and application_free_formula = function
  | Ast.True | Ast.False | Ast.Cmp _ -> true
  | Ast.Not f -> application_free_formula f
  | Ast.And (a, b) | Ast.Or (a, b) ->
    application_free_formula a && application_free_formula b
  | Ast.Some_in (_, r, f) | Ast.All_in (_, r, f) ->
    application_free r && application_free_formula f
  | Ast.In_rel (_, r) | Ast.Member (_, r) -> application_free r

let prepare catalog ~params (query : Ast.range) =
  (* typecheck the form once, parameters in scope *)
  let schema =
    Typecheck.infer_range (Typecheck.with_scalar_params catalog params) [] query
  in
  (* an application-free comprehension compiles to a static plan (Param
     placeholders act as closed index keys); a constructor or selector
     application keeps its route — view serving, the aggregate route or
     the fixpoint — and is interpreted per call with the parameters
     bound (the paper's "partial logical access paths") *)
  let route =
    match query with
    | Ast.Comp _ when application_free query -> (
      (* typechecked above: every relation the form names exists *)
      let schema_of_rel n = Option.get (catalog.Typecheck.schema_of_rel n) in
      match Plan.of_range ~schema_of_rel query with
      | plan -> Compiled plan
      | exception Plan.Not_compilable _ -> Interpreted query)
    | _ -> Interpreted query
  in
  { pr_params = params; pr_schema = schema; pr_route = route }

let run_prepared p env values =
  if List.length values <> List.length p.pr_params then
    Eval.runtime_error "prepared form expects %d argument(s)"
      (List.length p.pr_params);
  let env =
    List.fold_left2
      (fun env (name, ty) v ->
        if Dc_relation.Value.type_of v <> ty then
          Eval.runtime_error "prepared form: argument %s expects %s" name
            (Dc_relation.Value.type_name ty);
        Eval.bind_scalar env name v)
      env p.pr_params values
  in
  match p.pr_route with
  | Compiled plan ->
    let r = Plan.run env plan in
    if Schema.equal (Relation.schema r) p.pr_schema then r
    else Database.coerce p.pr_schema r
  | Interpreted query -> Eval.eval_range env query

let explain ppf (d : decision) =
  Fmt.pf ppf "query: %a@." Ast.pp_range d.d_query;
  Fmt.pf ppf "method: %s@." (method_name d.d_method);
  List.iter (fun n -> Fmt.pf ppf "note: %s@." n) d.d_notes;
  (match d.d_method with
  | Decompiled q | Pushed q ->
    Fmt.pf ppf "rewritten: %a@." Ast.pp_range q;
    (match d.d_plan with
    | Some plan -> Fmt.pf ppf "plan:@.%a@." Plan.pp plan
    | None -> ())
  | Magic { program; query; _ } ->
    Fmt.pf ppf "translated program:@.%a@." Dc_datalog.Syntax.pp_program program;
    Fmt.pf ppf "magic query: %a@." Dc_datalog.Syntax.pp_atom query
  | Direct -> ());
  Quant_graph.pp ppf d.d_quant_graph
