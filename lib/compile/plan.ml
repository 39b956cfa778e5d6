(* Physical query plans: the compiled form of (constructor-free) calculus
   queries, produced at the query-compilation level and interpreted at the
   runtime level (paper §4: "compilation is usually decoupled from
   execution" in a database programming language).

   A compiled comprehension is a union of branch pipelines; each pipeline
   is a sequence of binder steps — a scan or an indexed lookup keyed by
   equality conjuncts on previously bound variables — with residual filters
   attached to the earliest step at which they are closed.  This reifies
   exactly the join scheduling the dynamic evaluator performs, but fixes
   the decisions at compile time and makes them printable (EXPLAIN).

   Constructor applications cannot be compiled into a static pipeline
   (a recursive one needs the §3.2 fixpoint): an application in range
   position is not compilable, and the planner decompiles acyclic ones
   before it compiles. *)

open Dc_relation
open Dc_calculus
open Ast

exception Not_compilable of string

let not_compilable fmt = Fmt.kstr (fun s -> raise (Not_compilable s)) fmt

type source =
  | Src_rel of string (* named relation, resolved at run time *)
  | Src_comp of t (* nested compiled comprehension *)

and access =
  | Full_scan
  | Index_lookup of (string * term) list (* attr = closed term *)

and step = {
  s_var : var;
  s_source : source;
  s_access : access;
  s_filters : formula list; (* closed once this step's variable is bound *)
  s_correlated : bool; (* source references earlier binders: evaluate per
                          outer binding *)
}

and branch_plan = {
  bp_prefilters : formula list; (* closed before any binding *)
  bp_steps : step list;
  bp_target : term list; (* [] = identity of the single step *)
}

and t = {
  p_branches : branch_plan list;
  p_schema : Schema.t;
}

(* ------------------------------------------------------------------ *)
(* Compilation: the evaluator's join schedule ({!Eval.schedule}, with no
   cardinalities), fixed at compile time; schemas come from the
   typechecker. *)

type cenv = {
  catalog : Typecheck.env;
  ctx : Typecheck.ctx; (* outer binders (correlated compilation) *)
}

let rec compile cenv schema (branches : branch list) =
  { p_branches = List.map (compile_branch cenv) branches; p_schema = schema }

and compile_branch cenv (b : branch) =
  let outer = Vars.S.of_list (List.map fst cenv.ctx) in
  let placed = Eval.schedule ~card:(fun _ -> None) ~outer b in
  let binders = Array.of_list b.binders in
  let _, steps =
    List.fold_left_map
      (fun ctx { Eval.p_binder; p_keys = keys; p_filters = filters } ->
        let v, range = binders.(p_binder) in
        let schema = Typecheck.infer_range cenv.catalog ctx range in
        let source =
          match range with
          | Rel n -> Src_rel n
          | Comp branches ->
            Src_comp (compile { cenv with ctx } schema branches)
          | Select _ | Construct _ ->
            not_compilable "unresolved application in %a (decompile first)"
              Ast.pp_range range
        in
        let correlated =
          not (Vars.S.subset (Vars.free_vars_range range) outer)
        in
        (* a correlated source is re-evaluated per outer binding; keys
           degrade to filters there *)
        let keys, filters =
          if correlated then
            ( [],
              List.map (fun (a, t) -> Cmp (Eq, Field (v, a), t)) keys
              @ filters )
          else (keys, filters)
        in
        let step =
          {
            s_var = v;
            s_source = source;
            s_access = (if keys = [] then Full_scan else Index_lookup keys);
            s_filters = filters;
            s_correlated = correlated;
          }
        in
        ((v, schema) :: ctx, step))
      cenv.ctx placed
  in
  {
    bp_prefilters = Eval.prefilters ~outer b;
    bp_steps = steps;
    bp_target = b.target;
  }

(* Compile a comprehension; its schema is the one the typechecker
   infers. *)
let of_range catalog (range : Ast.range) =
  match range with
  | Comp branches -> (
    try
      compile { catalog; ctx = [] }
        (Typecheck.infer_range catalog [] range)
        branches
    with Typecheck.Error msg -> not_compilable "%s" msg)
  | Rel _ -> not_compilable "a relation name is read as it is"
  | r -> not_compilable "unresolved application in %a" Ast.pp_range r

(* ------------------------------------------------------------------ *)
(* Execution: lower the plan onto the shared operator IR and run it on
   the one physical executor.  A [Plan.t] is thereby a thin, printable
   wrapper over IR construction — the compile-time record of decisions,
   with the runtime shared with the calculus evaluator and the Datalog
   engines. *)

module Ir = Dc_exec.Ir

(* [use_indexes = false] forces full scans (the E11 ablation: what the
   paper's range-nested evaluation buys over tuple-wise filtering).  The
   steps lower through the calculus evaluator's slot-row compiler, so a
   compiled plan and a dynamically scheduled branch run the same row
   code. *)
let rec lower ~use_indexes env (plan : t) : Ir.t =
  let step_of (step : step) : Eval.step =
    if step.s_correlated then
      {
        Eval.var = step.s_var;
        schema =
          (match step.s_source with
          | Src_rel n -> Relation.schema (Eval.lookup_rel env n)
          | Src_comp p -> p.p_schema);
        source = Eval.Correlated (fun env -> source_rel ~use_indexes env step.s_source);
        keys = [];
        filters = step.s_filters;
      }
    else begin
      let rel = source_rel ~use_indexes env step.s_source in
      let src_label =
        match step.s_source with
        | Src_rel n -> n
        | Src_comp _ -> "<subquery>"
      in
      let keys, filters =
        match step.s_access with
        | Index_lookup keys when use_indexes -> (keys, step.s_filters)
        | Index_lookup keys ->
          (* ablation: evaluate keys as per-tuple filters *)
          ( [],
            List.map (fun (a, t) -> Cmp (Eq, Field (step.s_var, a), t)) keys
            @ step.s_filters )
        | Full_scan -> ([], step.s_filters)
      in
      {
        Eval.var = step.s_var;
        schema = Relation.schema rel;
        source = Eval.Fixed (rel, src_label);
        keys;
        filters;
      }
    end
  in
  let lower_branch (bp : branch_plan) : Ir.t =
    (* branch prefilters gate the whole pipeline: a filter on the seed.
       They are closed before any binding, so they are also decidable at
       lowering time — a dead branch skips source evaluation entirely. *)
    if not (List.for_all (Eval.eval_formula env) bp.bp_prefilters) then
      Eval.lower_steps ~label:"<dead branch>" ~prefilters:bp.bp_prefilters env
        [] ~target:[]
    else
      Eval.lower_steps ~prefilters:bp.bp_prefilters env
        (List.map step_of bp.bp_steps)
        ~target:bp.bp_target
  in
  match List.map lower_branch plan.p_branches with
  | [ one ] -> one
  | branches -> Ir.union ~label:(lazy "branches") branches

and source_rel ~use_indexes env = function
  | Src_rel n -> Eval.lookup_rel env n
  | Src_comp p -> exec ~use_indexes env p

and exec ~use_indexes env (plan : t) =
  let pipeline = lower ~use_indexes env plan in
  let acc = ref (Relation.empty plan.p_schema) in
  Ir.run ~guard:env.Eval.guard Ir.empty_ctx pipeline (fun t ->
      acc := Relation.add_unchecked t !acc);
  !acc

(* Public entry: lower, record the pipeline for EXPLAIN when the
   environment traces, execute. *)
let run ?(use_indexes = true) env (plan : t) =
  let pipeline = lower ~use_indexes env plan in
  (match env.Eval.trace with
  | Some tr -> Ir.Trace.record tr ~label:"compiled plan" pipeline
  | None -> ());
  let acc = ref (Relation.empty plan.p_schema) in
  Ir.run ~guard:env.Eval.guard Ir.empty_ctx pipeline (fun t ->
      acc := Relation.add_unchecked t !acc);
  !acc

(* ------------------------------------------------------------------ *)
(* Printing *)

let pp_access ppf = function
  | Full_scan -> Fmt.string ppf "scan"
  | Index_lookup keys ->
    Fmt.pf ppf "index on %a"
      Fmt.(list ~sep:(any ", ") (fun ppf (a, t) -> Fmt.pf ppf "%s = %a" a Ast.pp_term t))
      keys

let rec pp_source ppf = function
  | Src_rel n -> Fmt.string ppf n
  | Src_comp p -> Fmt.pf ppf "(@[<v>%a@])" pp p

and pp_step ppf s =
  Fmt.pf ppf "%a %s IN %a" pp_access s.s_access s.s_var pp_source s.s_source;
  List.iter (fun f -> Fmt.pf ppf "@   filter %a" Ast.pp_formula f) s.s_filters

and pp_branch ppf bp =
  List.iter
    (fun f -> Fmt.pf ppf "prefilter %a@ " Ast.pp_formula f)
    bp.bp_prefilters;
  Fmt.pf ppf "@[<v2>pipeline:";
  List.iter (fun s -> Fmt.pf ppf "@ %a" pp_step s) bp.bp_steps;
  (match bp.bp_target with
  | [] -> ()
  | ts ->
    Fmt.pf ppf "@ project <%a>" Fmt.(list ~sep:(any ", ") Ast.pp_term) ts);
  Fmt.pf ppf "@]"

and pp ppf plan =
  match plan.p_branches with
  | [ b ] -> pp_branch ppf b
  | bs ->
    Fmt.pf ppf "@[<v2>union:";
    List.iter (fun b -> Fmt.pf ppf "@ %a" pp_branch b) bs;
    Fmt.pf ppf "@]"
