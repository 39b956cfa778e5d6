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

   Recursive constructor applications cannot be compiled into a static
   pipeline (they need the §3.2 fixpoint); the planner only sends
   decompiled/pushed — hence application-free — queries here. *)

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
(* Compilation *)

type cenv = {
  schema_of_rel : string -> Schema.t;
  bound : Vars.S.t; (* outer variables (correlated compilation) *)
}

let rec source_schema cenv = function
  | Src_rel n -> cenv.schema_of_rel n
  | Src_comp p -> p.p_schema

and compile_source cenv = function
  | Rel n -> Src_rel n
  | Comp branches -> Src_comp (compile cenv branches)
  | (Select _ | Construct _) as r ->
    not_compilable "unresolved application in %a (decompile first)"
      Ast.pp_range r

(* Infer the output schema of a branch from binder schemas, mirroring the
   evaluator's rules. *)
and branch_schema _cenv (b : branch) binder_schemas =
  match b.target with
  | [] -> (
    match binder_schemas with
    | [ (_, s) ] -> s
    | _ -> not_compilable "identity branch must have exactly one binder")
  | ts ->
    let used = Hashtbl.create 8 in
    let ty_of t =
      let rec term_ty = function
        | Const v -> Value.type_of v
        | Param _ -> not_compilable "free parameter in compiled query"
        | Field (v, a) -> (
          match List.assoc_opt v binder_schemas with
          | Some s -> Schema.attr_ty s (Schema.attr_index s a)
          | None -> not_compilable "unbound variable %s" v)
        | Binop (_, x, _) -> term_ty x
      in
      term_ty t
    in
    let attr i t =
      let base =
        match t with
        | Field (_, a) -> a
        | _ -> Fmt.str "c%d" i
      in
      let name = if Hashtbl.mem used base then Fmt.str "%s_%d" base i else base in
      Hashtbl.replace used name ();
      (name, ty_of t)
    in
    Schema.make (List.mapi attr ts)

(* Binder reordering: delegated to the shared IR-level rewrite rule
   ({!Dc_exec.Join_order}) — prefer, at each position, the binder with the
   most equality conjuncts usable as index keys given what is already
   bound (cardinalities are unknown at compile time, so the key count
   decides alone), respecting the dependency order correlated ranges
   impose.  Conjunctive WHERE semantics is order-independent, so this is
   always sound. *)
and reorder_binders cenv (b : branch) =
  match b.binders with
  | [] | [ _ ] -> b
  | binders ->
    let conjs = conjuncts b.where in
    let arr = Array.of_list binders in
    let var_pos = List.mapi (fun i (v, _) -> (v, i)) binders in
    let candidates =
      List.mapi
        (fun i (v, range) ->
          let deps =
            Vars.S.fold
              (fun fv deps ->
                match List.assoc_opt fv var_pos with
                | Some j when j <> i -> j :: deps
                | _ -> deps)
              (Vars.free_vars_range range) []
          in
          let keys_given placed =
            let bound =
              List.fold_left
                (fun s j -> Vars.S.add (fst arr.(j)) s)
                cenv.bound placed
            in
            List.length
              (List.filter
                 (fun f ->
                   match f with
                   | Cmp (Eq, Field (v', _), t) | Cmp (Eq, t, Field (v', _)) ->
                     v' = v && Vars.S.subset (Vars.free_vars_term t) bound
                   | _ -> false)
                 conjs)
          in
          { Dc_exec.Join_order.deps; card = None; keys_given })
        binders
    in
    let order = Dc_exec.Join_order.order candidates in
    { b with binders = List.map (fun i -> arr.(i)) order }

and compile_branch cenv (b : branch) =
  let b = if b.target = [] then b else reorder_binders cenv b in
  let conjs = conjuncts b.where in
  let binder_vars = List.map fst b.binders in
  let position_of f =
    let needed = Vars.S.diff (Vars.free_vars_formula f) cenv.bound in
    let rec last i best = function
      | [] -> best
      | v :: rest -> last (i + 1) (if Vars.S.mem v needed then i else best) rest
    in
    last 0 (-1) binder_vars
  in
  let tagged = List.map (fun f -> (position_of f, f)) conjs in
  let prefilters =
    List.filter_map (fun (i, f) -> if i < 0 then Some f else None) tagged
  in
  let bound_before i =
    List.filteri (fun j _ -> j < i) binder_vars
    |> List.fold_left (fun s v -> Vars.S.add v s) cenv.bound
  in
  let binder_schemas = ref [] in
  let steps =
    List.mapi
      (fun i (v, range) ->
        let source =
          compile_source { cenv with bound = bound_before i } range
        in
        binder_schemas := !binder_schemas @ [ (v, source_schema cenv source) ];
        let here =
          List.filter_map (fun (j, f) -> if j = i then Some f else None) tagged
        in
        let closed t = Vars.S.subset (Vars.free_vars_term t) (bound_before i) in
        let keys, filters =
          List.partition_map
            (fun f ->
              match f with
              | Cmp (Eq, Field (v', a), t) when v' = v && closed t ->
                Either.Left (a, t)
              | Cmp (Eq, t, Field (v', a)) when v' = v && closed t ->
                Either.Left (a, t)
              | f -> Either.Right f)
            here
        in
        let correlated =
          not (Vars.S.subset (Vars.free_vars_range range) cenv.bound)
        in
        let access =
          (* a correlated source is re-evaluated per outer binding; keys
             degrade to filters there *)
          if correlated || keys = [] then Full_scan else Index_lookup keys
        in
        let filters =
          if correlated && keys <> [] then
            List.map (fun (a, t) -> Cmp (Eq, Field (v, a), t)) keys @ filters
          else filters
        in
        {
          s_var = v;
          s_source = source;
          s_access = access;
          s_filters = filters;
          s_correlated = correlated;
        })
      b.binders
  in
  ( { bp_prefilters = prefilters; bp_steps = steps; bp_target = b.target },
    branch_schema cenv b !binder_schemas )

and compile cenv (branches : branch list) =
  match branches with
  | [] -> not_compilable "empty comprehension"
  | _ ->
    let compiled = List.map (compile_branch cenv) branches in
    let schema = snd (List.hd compiled) in
    { p_branches = List.map fst compiled; p_schema = schema }

(* Compile a full query range. *)
let of_range ~schema_of_rel (range : Ast.range) =
  let cenv = { schema_of_rel; bound = Vars.S.empty } in
  match range with
  | Rel n ->
    {
      p_branches =
        [
          {
            bp_prefilters = [];
            bp_steps =
              [
                {
                  s_var = "r";
                  s_source = Src_rel n;
                  s_access = Full_scan;
                  s_filters = [];
                  s_correlated = false;
                };
              ];
            bp_target = [];
          };
        ];
      p_schema = schema_of_rel n;
    }
  | Comp branches -> compile cenv branches
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
