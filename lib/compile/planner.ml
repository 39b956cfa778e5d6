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
   4. a recursive application whose system {!Closure} proves regular
      runs the closure operator ({!Dc_exec.Reach}), a traversal in
      product with the system's automaton, instead of fixpoint rounds:
      from every source, or, for the one binder of the query's
      comprehension that a constant or parameter binds, from its bound
      first column or backwards from its bound second one.

   An application a registered maintained view answers keeps the direct
   method, so the view answers it.

   A decision reads only the catalog, through a {!Typecheck.env} that
   both {!Dc_core.Database.typecheck_env} and
   {!Dc_core.Snapshot.typecheck_env} provide, and holds no relation
   value: it runs over whatever evaluation environment it is given. *)

open Dc_relation
open Dc_calculus

(* A recognised constructor and its regular system. *)
type regular = { r_def : Defs.constructor_def; r_system : Closure.system }

(* The query's own application [s_app] of [s_regular], bound by one
   binder whose column [s_column] = [s_key]: [s_query] reads the seeded
   traversal's pairs from [s_name], the application's text.  Other
   applications of the constructor, in a selector's predicate or another
   binder say, stay whole. *)
type seed = {
  s_regular : regular;
  s_app : Ast.range;
  s_column : int;
  s_key : Ast.term;
  s_name : string;
  s_query : Ast.range;
}

type method_ =
  | Direct (* evaluate as written: LFP of the application system *)
  | Decompiled of Ast.range (* inlined as a view (acyclic) *)
  | Pushed of Ast.range (* restriction distributed over branches *)
  | Traversal of { systems : regular list; seed : seed option }
  | Magic of {
      program : Dc_datalog.Syntax.program;
      query : Dc_datalog.Syntax.atom;
      compiled : Dc_datalog.Magic.compiled;
      schema : Schema.t;
      residual : Ast.formula; (* conjuncts magic could not absorb *)
      var : Ast.var;
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
  | Traversal _ -> "closure operator"
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

(* The capture rule for an application [app] of [def] restricted by
   [bindings]: translate it and compile it for the bindings' pattern. *)
let magic (catalog : Typecheck.env) notes v app (def : Defs.constructor_def)
    bindings residual =
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
      }
  | exception
      (Dc_datalog.Translate.Unsupported msg | Dc_datalog.Magic.Unsupported msg)
    ->
    note notes "translation unsupported (%s): direct fixpoint" msg;
    Direct

(* Is [def]'s system regular ({!Closure})?  A near miss gets a note. *)
let recognised catalog notes (def : Defs.constructor_def) =
  match Closure.recognise catalog def with
  | Closure.Regular r_system -> Some { r_def = def; r_system }
  | Declined why ->
    note notes "regular-system recogniser declined %s: %s" def.con_name why;
    None

let regular_of systems c =
  List.find_opt (fun r -> String.equal r.r_def.con_name c) systems

let pp_labels =
  Fmt.(
    using
      (fun (s : Closure.system) -> Array.to_list s.labels)
      (list ~sep:(any ", ") Ast.pp_range))

(* The closure operator for [query] over the recognised [systems],
   seeded when the query is one comprehension and a constant or
   parameter binds a column of a binder over one of their applications:
   the first such binder, by its first column if bound, else its
   second. *)
let traversal notes systems query =
  let seed (b : Ast.branch) (v, app) =
    match app with
    | Ast.Construct (_, c, _) -> (
      match regular_of systems c with
      | None -> None
      | Some s_regular ->
        let bindings, _ = Pushdown.constant_bindings v b.where in
        let bound i =
          List.assoc_opt (Schema.attr_name s_regular.r_def.con_result i) bindings
        in
        let seed s_column s_key =
          let s_name = Fmt.str "%a" Ast.pp_range app in
          let binders =
            List.map (fun (x, r) -> if x = v then (x, Ast.Rel s_name) else (x, r)) b.binders
          in
          Some
            ( { s_regular; s_app = app; s_column; s_key; s_name;
                s_query = Ast.Comp [ { b with binders } ] },
              v )
        in
        match (bound 0, bound 1) with
        | Some key, _ -> seed 0 key
        | None, Some key -> seed 1 key
        | None, None -> None)
    | _ -> None
  in
  let seed =
    match query with
    | Ast.Comp [ b ] -> List.find_map (seed b) b.binders
    | _ -> None
  in
  List.iter
    (fun r ->
      note notes "%s is regular over %a: closure operator%s" r.r_def.con_name
        pp_labels r.r_system
        (match seed with
        | Some (s, v) when s.s_regular == r ->
          if s.s_column = 0 then Fmt.str ", from %s's bound first column" v
          else Fmt.str ", backwards from %s's bound second column" v
        | _ -> ""))
    systems;
  Traversal { systems; seed = Option.map fst seed }

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
  (* the recursive constructors the query applies whose systems are
     regular: each of their applications runs the closure operator *)
  let systems () =
    Vars.apps_of_range query
    |> List.map (fun (a : Vars.app) -> a.app_con)
    |> List.sort_uniq String.compare
    |> List.filter (Depgraph.is_recursive dep)
    |> List.filter_map (fun c ->
           Option.bind (constructor_of c) (recognised catalog notes))
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
      let systems = systems () in
      match constructor_of c with
      | None -> Direct
      | Some _ when Option.is_some (regular_of systems c) ->
        traversal notes systems query
      | Some _ when bindings = [] ->
        note notes "recursive application without constant restriction: fixpoint";
        Direct
      | Some def -> magic catalog notes v app def bindings residual)
  | Some (_, _, _) | None ->
    if recursive then begin
      match systems () with
      | [] ->
        note notes "recursive quant graph: fixpoint evaluation";
        Direct
      | systems -> traversal notes systems query
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
    | Traversal _ | Magic _ -> None
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

(* The closure operator for the application [base{r(args)}], the pairs
   [seed] selects: each label is evaluated once, where the body would
   be. *)
let reach (env : Eval.env) r base args seed =
  let def = r.r_def in
  let body = Eval.application_env env def base args in
  let labels =
    Array.map
      (fun range ->
        Dc_exec.Ir.Fixed
          (Dc_exec.Extent.of_relation
             ~label:(Fmt.str "%a" Ast.pp_range range)
             ~cache:env.icache (Eval.eval_range body range)))
      r.r_system.labels
  in
  let op =
    Dc_exec.Ir.closure ~label:(lazy def.con_name) ~labels r.r_system.automaton seed
  in
  Option.iter
    (fun tr -> Dc_exec.Ir.Trace.record tr ~label:("closure " ^ def.con_name) op)
    env.trace;
  Dc_exec.Ir.collect_sorted ~guard:env.guard ~schema:def.con_result op

(* [env] with every application of [systems] resolved by the closure
   operator, from every source, and every other application by the
   environment's own route. *)
let traversing systems (env : Eval.env) =
  let route = env.hooks.on_construct in
  let on_construct (env : Eval.env) base (def : Defs.constructor_def) args =
    match regular_of systems def.con_name with
    | Some r -> reach env r base args Dc_exec.Reach.Every
    | None -> route env base def args
  in
  { env with hooks = { env.hooks with on_construct } }

let execute ?use_indexes (env : Eval.env) (d : decision) =
  match d.d_plan, d.d_method with
  | Some plan, _ -> coerce d.d_schema (Plan.run ?use_indexes env plan)
  | None, Direct -> Eval.eval_range env d.d_query
  | None, (Decompiled q | Pushed q) -> coerce d.d_schema (Eval.eval_range env q)
  | None, Traversal { systems; seed } -> (
    let env = traversing systems env in
    match seed with
    | None -> Eval.eval_range env d.d_query
    | Some s ->
      let key = Eval.eval_term env s.s_key in
      let seed = if s.s_column = 0 then Dc_exec.Reach.From [ key ] else To key in
      let base, args =
        match s.s_app with
        | Ast.Construct (base, _, args) -> (Eval.eval_range env base, Eval.eval_args env args)
        | _ -> assert false
      in
      let pairs = reach env s.s_regular base args seed in
      Eval.eval_range (Eval.bind_rel env s.s_name pairs) s.s_query)
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

let explain ppf (d : decision) =
  Fmt.pf ppf "query: %a@." Ast.pp_range d.d_query;
  Fmt.pf ppf "method: %s@." (method_name d.d_method);
  List.iter (fun n -> Fmt.pf ppf "note: %s@." n) d.d_notes;
  (match d.d_method with
  | Decompiled q | Pushed q -> Fmt.pf ppf "rewritten: %a@." Ast.pp_range q
  | Traversal { systems; seed } ->
    Fmt.pf ppf "closure operator: %s%a@."
      (String.concat ", " (List.map (fun r -> r.r_def.con_name) systems))
      Fmt.(
        option (fun ppf s ->
            pf ppf " (%s %s %a)" s.s_regular.r_def.con_name
              (if s.s_column = 0 then "from" else "to")
              Ast.pp_term s.s_key))
      seed
  | Magic { program; query; _ } ->
    Fmt.pf ppf "translated program:@.%a@." Dc_datalog.Syntax.pp_program program;
    Fmt.pf ppf "magic query: %a@." Dc_datalog.Syntax.pp_atom query
  | Direct -> ());
  Option.iter (Fmt.pf ppf "plan:@.%a@." Plan.pp) d.d_plan;
  Quant_graph.pp ppf d.d_quant_graph
