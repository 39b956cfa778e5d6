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
      the fixpoint.

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
  | Magic of {
      program : Dc_datalog.Syntax.program;
      query : Dc_datalog.Syntax.atom;
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
  | Magic _ -> "magic (capture rule)"

let note notes fmt = Fmt.kstr (fun s -> notes := s :: !notes) fmt

(* ------------------------------------------------------------------ *)
(* Query-compilation level *)

(* The evaluation method, from the dependency graph of the constructors
   the query reaches. *)
let choose (catalog : Typecheck.env) notes (query : Ast.range) recursive =
  let constructor_of = catalog.constructor_of in
  let rec closure acc = function
    | [] -> acc
    | c :: rest when List.mem_assoc c acc -> closure acc rest
    | c :: rest -> (
      match constructor_of c with
      | Some d -> closure ((c, d) :: acc) (Positivity.dependencies d @ rest)
      | None -> closure acc rest)
  in
  let dep =
    Vars.apps_of_range query
    |> List.map (fun (a : Vars.app) -> a.app_con)
    |> closure [] |> List.map snd |> Depgraph.build
  in
  let schema_of_range r = Typecheck.infer_range catalog [] r in
  let decompile () =
    Decompiled
      (Rewrite.decompile ~schema_of:schema_of_range
         ~selector_of:catalog.selector_of ~constructor_of
         ~is_recursive:(Depgraph.is_recursive dep) query)
  in
  match Pushdown.restricted_application query with
  | Some (v, (Ast.Construct (_, c, _) as app), where) -> (
    let bindings, residual = Pushdown.constant_bindings v where in
    if not (Depgraph.is_recursive dep c) then begin
      (* acyclic application: decompile + push the whole restriction *)
      match
        Pushdown.push_nonrecursive ~constructor_of ~schema_of_range v app where
      with
      | pushed ->
        note notes "constructor %s acyclic: decompiled, restriction pushed" c;
        Pushed (Rewrite.flatten_range pushed)
      | exception Pushdown.Not_applicable msg ->
        note notes "pushdown not applicable (%s): decompiling only" msg;
        decompile ()
    end
    else if bindings <> [] then begin
      match constructor_of c with
      | None -> Direct
      | Some def -> (
        match
          Pushdown.magic_query
            ~ctx:(Dc_datalog.Translate.context catalog)
            ~schema:def.con_result app bindings
        with
        | program, q ->
          note notes
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
        | exception
            ( Dc_datalog.Translate.Unsupported msg
            | Dc_datalog.Magic.Unsupported msg ) ->
          note notes "translation unsupported (%s): direct fixpoint" msg;
          Direct)
    end
    else begin
      note notes "recursive application without constant restriction: fixpoint";
      Direct
    end)
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
    end

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
    | Magic _ -> None
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
    match choose catalog notes query (Quant_graph.is_recursive graph) with
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
  | None, Magic { program; query; schema; residual; var } ->
    let stats = Dc_datalog.Seminaive.fresh_stats () in
    let result =
      Pushdown.run_magic ~guard:env.guard ~stats ?trace:env.trace
        ~edb:
          (Dc_datalog.Translate.edb
             (fun n -> Eval.SM.find_opt n env.rels)
             program)
        ~schema program query
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
   times with actual values.  It is a decision over the form, with the
   parameters in scope: the compile rule gives an application-free
   comprehension its plan (a parameter acts as a closed index key), and
   any other form is interpreted per call with the parameters bound, so
   view serving, the aggregate route and the fixpoint apply as they do
   to the unprepared query (the paper's "partial logical access
   paths"). *)

type prepared = {
  pr_params : (string * Value.ty) list;
  pr_decision : decision;
}

let prepared_description p =
  match p.pr_decision.d_plan with
  | Some plan -> Fmt.str "compiled plan:@.%a" Plan.pp plan
  | None -> "interpreted form (constructor or selector application)"

let prepare catalog ~params (query : Ast.range) =
  let catalog = Typecheck.with_scalar_params catalog params in
  {
    pr_params = params;
    pr_decision =
      decide catalog (ref []) query
        (Typecheck.infer_range catalog [] query)
        (Quant_graph.build ~lookup:catalog.constructor_of query)
        Direct;
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
  | Magic { program; query; _ } ->
    Fmt.pf ppf "translated program:@.%a@." Dc_datalog.Syntax.pp_program program;
    Fmt.pf ppf "magic query: %a@." Dc_datalog.Syntax.pp_atom query
  | Direct -> ());
  Option.iter (Fmt.pf ppf "plan:@.%a@." Plan.pp) d.d_plan;
  Quant_graph.pp ppf d.d_quant_graph
