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
      the fixpoint;
   4. a recursive application whose constructor {!Closure} proves to be
      the closure of its exit branch by self-composition runs in the
      linear form its binding needs: left-linear under magic sets when
      the first column is bound, right-linear when the second is or when
      nothing is bound and the body is non-linear.

   An application a registered maintained view answers keeps the direct
   method, so the view answers it.

   A decision reads only the catalog, through a {!Typecheck.env} that
   both {!Dc_core.Database.typecheck_env} and
   {!Dc_core.Snapshot.typecheck_env} provide, and holds no relation
   value: it runs over whatever evaluation environment it is given. *)

open Dc_relation
open Dc_calculus

type method_ =
  | Direct (* evaluate as written: LFP of the application system *)
  | Decompiled of Ast.range (* inlined as a view (acyclic) *)
  | Pushed of Ast.range (* restriction distributed over branches *)
  | Linearized of Defs.constructor_def
      (* the application's closure rewritten right-linear, same name *)
  | Magic of {
      program : Dc_datalog.Syntax.program;
      query : Dc_datalog.Syntax.atom;
      compiled : Dc_datalog.Magic.compiled;
      schema : Schema.t;
      residual : Ast.formula; (* conjuncts magic could not absorb *)
      var : Ast.var;
      linearized : Defs.constructor_def option;
    }

type decision = {
  d_query : Ast.range;
  d_schema : Schema.t; (* the query's result schema, from the typechecker *)
  d_method : method_;
  d_plan : Plan.t option; (* the physical plan of what the method runs *)
  d_quant_graph : Quant_graph.t;
  d_notes : string list;
}

let method_name = function
  | Direct -> "direct fixpoint"
  | Decompiled _ -> "decompiled view"
  | Pushed _ -> "pushed restriction"
  | Linearized _ -> "linearized closure"
  | Magic _ -> "magic (capture rule)"

let note notes fmt = Fmt.kstr (fun s -> notes := s :: !notes) fmt

(* ------------------------------------------------------------------ *)
(* Query-compilation level *)

(* Does a registered maintained view answer [app]?  Same constructor,
   base and arguments, a prepared form's parameter matching any scalar. *)
let served (catalog : Typecheck.env) (app : Vars.app) =
  List.exists
    (function
      | Ast.Construct (base, c, args) ->
        String.equal c app.app_con && base = app.app_base
        && List.length args = List.length app.app_args
        && List.for_all2
             (fun view arg ->
               match arg with
               | Ast.Arg_scalar (Ast.Param _) -> true
               | _ -> view = arg)
             args app.app_args
      | _ -> false)
    catalog.views

(* [lookup] with the constructor named like [def] resolved to [def]. *)
let resolving (def : Defs.constructor_def) lookup n =
  if String.equal n def.con_name then Some def else lookup n

(* The capture rule for an application [app] of [def] restricted by
   [bindings]: translate it (its constructor resolved to [linearized]
   when given) and compile it for the bindings' pattern. *)
let magic (catalog : Typecheck.env) notes v app (def : Defs.constructor_def)
    ?linearized bindings residual =
  let catalog =
    match linearized with
    | None -> catalog
    | Some l ->
      { catalog with constructor_of = resolving l catalog.constructor_of }
  in
  match
    Pushdown.magic_query
      ~ctx:(Dc_datalog.Translate.context catalog)
      ~schema:def.con_result app bindings
  with
  | program, query, compiled ->
    note notes
      "recursive cycle through %s with %d constant binding(s): capture rule \
       (magic sets)"
      def.con_name (List.length bindings);
    Magic
      {
        program;
        query;
        compiled;
        schema = def.con_result;
        residual = Ast.conj_list residual;
        var = v;
        linearized;
      }
  | exception
      (Dc_datalog.Translate.Unsupported msg | Dc_datalog.Magic.Unsupported msg)
    ->
    note notes "translation unsupported (%s): direct fixpoint" msg;
    Direct

(* A recursive application [app] of [def], restricted by [bindings] and
   the [residual] conjuncts: a closure runs in the linear form its
   binding needs, anything else as before — the capture rule when
   something is bound, the direct fixpoint otherwise. *)
let recursive_application catalog notes v app (def : Defs.constructor_def)
    bindings residual =
  let c = def.con_name and result = def.con_result in
  let as_written () =
    if bindings = [] then begin
      note notes "recursive application without constant restriction: fixpoint";
      Direct
    end
    else magic catalog notes v app def bindings residual
  in
  match Closure.recognise def with
  | Not_candidate -> as_written ()
  | Declined why ->
    note notes "closure recogniser declined %s: %s" c why;
    as_written ()
  | Closure closure -> (
    let bound i = List.mem_assoc (Schema.attr_name result i) bindings in
    let linearize shape =
      let rewritten = Closure.orient closure shape in
      note notes "%s is the closure of its exit branch: %s form%s" c
        (Closure.shape_name shape)
        (if rewritten = None then ", as written" else "");
      rewritten
    in
    let magic_in shape =
      let linearized = linearize shape in
      magic catalog notes v app def ?linearized bindings residual
    in
    if bound 0 then magic_in Closure.Left
    else if bound 1 then magic_in Closure.Right
    else if Closure.linear closure then begin
      note notes "%s is a linear closure, nothing bound: fixpoint" c;
      Direct
    end
    else
      match linearize Closure.Right with
      | Some def -> Linearized def
      | None -> Direct)

(* The evaluation method, from the dependency graph of the constructors
   the query reaches.  Every rewrite — inlining, pushing a restriction,
   the capture rule — evaluates part of a constructed extent, so a
   system that needs the whole of one keeps the direct method: an
   aggregate head (the rewrites know none) or a result key that is not
   the whole tuple (its key check runs on the whole extent). *)
let choose (catalog : Typecheck.env) names notes (query : Ast.range) recursive =
  let constructor_of = catalog.constructor_of in
  let rec closure acc = function
    | [] -> acc
    | c :: rest when List.mem_assoc c acc -> closure acc rest
    | c :: rest -> (
      match constructor_of c with
      | Some d -> closure ((c, d) :: acc) (Positivity.dependencies d @ rest)
      | None -> closure acc rest)
  in
  let reached =
    Vars.apps_of_range query
    |> List.map (fun (a : Vars.app) -> a.app_con)
    |> closure [] |> List.map snd
  in
  let dep = Depgraph.build reached in
  let schema_of_range r = Typecheck.infer_range catalog [] r in
  let decompile () =
    Decompiled
      (Rewrite.decompile ~names ~schema_of:schema_of_range
         ~selector_of:catalog.selector_of ~constructor_of
         ~is_recursive:(Depgraph.is_recursive dep) query)
  in
  let whole (d : Defs.constructor_def) =
    d.con_agg = None && Schema.key_is_whole_tuple d.con_result
  in
  match
    ( List.find_opt (served catalog) (Vars.apps_of_range query),
      List.find_opt (fun d -> not (whole d)) reached )
  with
  | Some app, _ ->
    note notes "%a is answered by a maintained view: direct" Ast.pp_range
      (Ast.Construct (app.app_base, app.app_con, app.app_args));
    Direct
  | None, Some ({ con_agg = Some _; _ } as agg) ->
    note notes "aggregate constructor %s reached: direct (aggregate route)"
      agg.con_name;
    Direct
  | None, Some partial ->
    note notes
      "result key of %s is partial: direct (key checked on the whole extent)"
      partial.con_name;
    Direct
  | None, None -> (
  match Pushdown.restricted_application query with
  | Some (v, (Ast.Construct (_, c, _) as app), where) -> (
    let bindings, residual = Pushdown.constant_bindings v where in
    if not (Depgraph.is_recursive dep c) then begin
      (* acyclic application: decompile + push the whole restriction *)
      match
        Pushdown.push_nonrecursive ~names ~constructor_of ~schema_of_range v app
          where
      with
      | pushed ->
        note notes "constructor %s acyclic: decompiled, restriction pushed" c;
        Pushed (Rewrite.flatten_range pushed)
      | exception Pushdown.Not_applicable msg ->
        note notes "pushdown not applicable (%s): decompiling only" msg;
        decompile ()
    end
    else
      match constructor_of c with
      | None -> Direct
      | Some def -> recursive_application catalog notes v app def bindings residual)
  | Some (_, _, _) | None ->
    if recursive then begin
      note notes "recursive quant graph: fixpoint evaluation";
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
        note notes "acyclic query: full decompilation and view optimization";
        decompile ()
      end
      else Direct
    end)

(* The one compile rule: what a method runs — the query itself, or its
   rewritten form — compiles to a physical plan when it is a
   comprehension with no application in range position.  Anything else
   is interpreted. *)
let decide catalog notes query schema graph method_ =
  let compile q =
    match Plan.of_range catalog q with
    | plan ->
      note notes "compiled to a physical plan (%d branch pipeline(s))"
        (List.length plan.Plan.p_branches);
      Some plan
    | exception Plan.Not_compilable msg ->
      (* a rewritten form was meant to compile; say why it did not *)
      if method_ <> Direct then
        note notes "not compilable to a static plan (%s): interpreting" msg;
      None
  in
  let d_plan =
    match method_ with
    | Direct -> compile query
    | Decompiled q | Pushed q -> compile q
    | Linearized _ | Magic _ -> None
  in
  {
    d_query = query;
    d_schema = schema;
    d_method = method_;
    d_plan;
    d_quant_graph = graph;
    d_notes = List.rev !notes;
  }

let plan catalog (query : Ast.range) =
  Dc_obs.Obs.Span.timed "plan" @@ fun () ->
  let schema =
    Dc_obs.Obs.Span.timed "typecheck" (fun () ->
        Typecheck.infer_range catalog [] query)
  in
  let graph = Quant_graph.build ~lookup:catalog.constructor_of query in
  let notes = ref [] in
  let method_ =
    match
      choose catalog (Rewrite.names ()) notes query
        (Quant_graph.is_recursive graph)
    with
    | m -> m
    | exception Typecheck.Error msg ->
      note notes "not decompilable (%s): direct fixpoint" msg;
      Direct
  in
  decide catalog notes query schema graph method_

(* ------------------------------------------------------------------ *)
(* Runtime level: run a decision over an evaluation environment, under
   the environment's guard and trace. *)

let coerce schema rel =
  if Schema.equal (Relation.schema rel) schema then rel
  else Relation.of_list schema (Relation.to_list rel)

let execute ?use_indexes (env : Eval.env) (d : decision) =
  match d.d_plan, d.d_method with
  | Some plan, _ -> coerce d.d_schema (Plan.run ?use_indexes env plan)
  | None, Direct -> Eval.eval_range env d.d_query
  | None, (Decompiled q | Pushed q) -> coerce d.d_schema (Eval.eval_range env q)
  | None, Linearized (def : Defs.constructor_def) ->
    (* the application resolves its constructor's name to the rewritten
       body, through the environment's own route (view, fixpoint) *)
    let constructor_def = resolving def env.hooks.constructor_def in
    Eval.eval_range
      { env with hooks = { env.hooks with constructor_def } }
      d.d_query
  | None, Magic { program; query; compiled; schema; residual; var; _ } ->
    let stats = Dc_datalog.Seminaive.fresh_stats () in
    (* a prepared form's parameters, variables of the query atom, seed
       the compiled program with their values *)
    let query =
      {
        query with
        args =
          List.map
            (function
              | Dc_datalog.Syntax.Var p when Eval.SM.mem p env.scalars ->
                Dc_datalog.Syntax.Const (Eval.SM.find p env.scalars)
              | arg -> arg)
            query.args;
      }
    in
    let result =
      Pushdown.run_magic ~guard:env.guard ~stats ?trace:env.trace
        ~edb:
          (Dc_datalog.Translate.edb
             (fun n -> Eval.SM.find_opt n env.rels)
             program)
        ~schema compiled query
    in
    Option.iter
      (fun tr -> Dc_exec.Ir.Trace.set_rounds tr (List.rev stats.round_log))
      env.trace;
    if residual = Ast.True then result
    else
      Relation.filter
        (fun t -> Eval.eval_formula (Eval.bind_var env var t schema) residual)
        result

(* ------------------------------------------------------------------ *)
(* Prepared query forms.

   "Database programming languages are frequently used to implement
   higher-level interfaces and therefore contain only incompletely
   specified query forms" (§4).  A prepared form is a query with scalar
   parameter placeholders, compiled once — the paper's logical access
   path: "a compiled procedure with dummy constants" — and executed many
   times with actual values.  It is the planner's decision over the
   form, a parameter standing where a constant would: the compile rule
   gives an application-free comprehension its plan (a parameter acts
   as a closed index key), a parameter restricting a recursive
   application binds its column for the capture rule (compiled once for
   the binding pattern, the value seeding it per call), and an
   application a view answers, an aggregate or an unrestricted fixpoint
   runs per call as it does for the unprepared query (the paper's
   "partial logical access paths"). *)

type prepared = {
  pr_params : (string * Value.ty) list;
  pr_decision : decision;
}

let prepared_description p =
  match p.pr_decision.d_plan with
  | Some plan -> Fmt.str "compiled plan:@.%a" Plan.pp plan
  | None ->
    String.concat "; "
      (method_name p.pr_decision.d_method :: p.pr_decision.d_notes)

let prepare catalog ~params (query : Ast.range) =
  {
    pr_params = params;
    pr_decision = plan (Typecheck.with_scalar_params catalog params) query;
  }

let run_prepared p env values =
  if List.length values <> List.length p.pr_params then
    Eval.runtime_error "prepared form expects %d argument(s)"
      (List.length p.pr_params);
  let env =
    List.fold_left2
      (fun env (name, ty) v ->
        if Value.type_of v <> ty then
          Eval.runtime_error "prepared form: argument %s expects %s" name
            (Value.type_name ty);
        Eval.bind_scalar env name v)
      env p.pr_params values
  in
  execute env p.pr_decision

let pp_linearized ppf (def : Defs.constructor_def) =
  Fmt.pf ppf "linearized %s:@." def.con_name;
  List.iter (Fmt.pf ppf "  %a@." Ast.pp_branch) def.con_body

let explain ppf (d : decision) =
  Fmt.pf ppf "query: %a@." Ast.pp_range d.d_query;
  Fmt.pf ppf "method: %s@." (method_name d.d_method);
  List.iter (fun n -> Fmt.pf ppf "note: %s@." n) d.d_notes;
  (match d.d_method with
  | Decompiled q | Pushed q -> Fmt.pf ppf "rewritten: %a@." Ast.pp_range q
  | Linearized def -> pp_linearized ppf def
  | Magic { program; query; linearized; _ } ->
    Option.iter (pp_linearized ppf) linearized;
    Fmt.pf ppf "translated program:@.%a@." Dc_datalog.Syntax.pp_program program;
    Fmt.pf ppf "magic query: %a@." Dc_datalog.Syntax.pp_atom query
  | Direct -> ());
  Option.iter (Fmt.pf ppf "plan:@.%a@." Plan.pp) d.d_plan;
  Quant_graph.pp ppf d.d_quant_graph
