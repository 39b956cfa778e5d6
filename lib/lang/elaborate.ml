(* Elaboration: resolve surface type names, lower the surface syntax onto
   the calculus AST of [Dc_calculus], and execute declarations against a
   [Dc_core.Database].

   This plays the front half of the DBPL compiler: after elaboration,
   everything is checked by [Typecheck] (via [Database]) and evaluated by
   the fixpoint machinery; EXPLAIN goes through [Dc_compile.Planner]. *)

open Dc_relation
open Dc_calculus
open Dc_core
open Surface
module Guard = Dc_guard.Guard
module Obs = Dc_obs.Obs
module Ivm = Dc_ivm.Ivm

exception Elab_error of string

let elab_error fmt = Fmt.kstr (fun s -> raise (Elab_error s)) fmt

type env = {
  db : Database.t;
  mutable scalar_types : (string * (Value.ty * Schema.refinement)) list;
  mutable relation_types : (string * Schema.t) list;
  buffer : Buffer.t; (* QUERY/PRINT/EXPLAIN output *)
  mutable pinned : Snapshot.t option;
      (* BEGIN ... COMMIT read-only transaction: while pinned, every
         QUERY/PRINT observes this one published version *)
}

let create db =
  {
    db;
    scalar_types = [];
    relation_types = [];
    buffer = Buffer.create 256;
    pinned = None;
  }

let output env fmt = Fmt.kstr (fun s -> Buffer.add_string env.buffer s) fmt
let pinned env = env.pinned

(* Return and clear the accumulated output, so each [run] (or each
   server-session statement) yields only its own QUERY/EXPLAIN text. *)
let drain_output env =
  let out = Buffer.contents env.buffer in
  Buffer.clear env.buffer;
  out

(* Per-statement snapshot isolation for server sessions: pin [snap] for
   the duration of [f] unless an explicit BEGIN already pinned one (the
   open transaction wins). *)
let with_snapshot env snap f =
  match env.pinned with
  | Some _ -> f ()
  | None ->
    env.pinned <- Some snap;
    Fun.protect ~finally:(fun () -> env.pinned <- None) f

(* ------------------------------------------------------------------ *)
(* Types *)

(* A surface scalar resolves to a value type plus the 2.1 domain
   refinement it carries (RANGE subtypes, possibly through aliases). *)
let resolve_scalar env = function
  | S_integer -> (Value.TInt, Schema.No_refinement)
  | S_string -> (Value.TStr, Schema.No_refinement)
  | S_boolean -> (Value.TBool, Schema.No_refinement)
  | S_real -> (Value.TFloat, Schema.No_refinement)
  | S_range (lo, hi) -> (Value.TInt, Schema.Int_range (lo, hi))
  | S_named n -> (
    match List.assoc_opt n env.scalar_types with
    | Some pair -> pair
    | None -> elab_error "unknown scalar type %s" n)

let resolve_relation_type env n =
  match List.assoc_opt n env.relation_types with
  | Some s -> s
  | None -> elab_error "unknown relation type %s" n

let elaborate_type env name = function
  | T_scalar s ->
    env.scalar_types <- (name, resolve_scalar env s) :: env.scalar_types
  | T_relation { key; fields } ->
    let resolved =
      List.concat_map
        (fun (names, ty) ->
          let ty, refine = resolve_scalar env ty in
          List.map (fun n -> (n, ty, refine)) names)
        fields
    in
    let attrs = List.map (fun (n, ty, _) -> (n, ty)) resolved in
    let refinements =
      List.filter_map
        (fun (n, _, r) -> if r = Schema.No_refinement then None else Some (n, r))
        resolved
    in
    let key = if key = [] then None else Some key in
    env.relation_types <-
      (name, Schema.make ?key ~refinements attrs) :: env.relation_types

(* Parameter types: relation type name wins, then scalar. *)
let elaborate_param env { p_name; p_type } =
  match p_type with
  | S_named n when List.mem_assoc n env.relation_types ->
    Defs.Rel_param (p_name, resolve_relation_type env n)
  | s -> Defs.Scalar_param (p_name, fst (resolve_scalar env s))

(* ------------------------------------------------------------------ *)
(* Scopes: names usable as relations vs. scalar parameters while lowering
   ranges inside definitions. *)

type scope = {
  rel_names : string list; (* formal + relation parameters *)
  scalar_names : string list; (* scalar parameters *)
}

let empty_scope = { rel_names = []; scalar_names = [] }

(* Global relation names resolve in the catalog the statement reads: the
   pinned snapshot of a read (a BEGIN transaction or a served
   statement's own), otherwise the live database. *)
let is_relation env n =
  match env.pinned with
  | Some snap -> Snapshot.get snap n <> None
  | None -> List.exists (String.equal n) (Database.relation_names env.db)

let rec lower_term env scope = function
  | T_int i -> Ast.Const (Value.Int i)
  | T_float f -> Ast.Const (Value.Float f)
  | T_string s -> Ast.Const (Value.str s)
  | T_field (v, a) -> Ast.Field (v, a)
  | T_name n ->
    if List.mem n scope.scalar_names then Ast.Param n
    else elab_error "unknown name %s (not a scalar parameter)" n
  | T_binop (op, a, b) ->
    Ast.Binop (op, lower_term env scope a, lower_term env scope b)

let rec lower_formula env scope = function
  | F_true -> Ast.True
  | F_false -> Ast.False
  | F_cmp (op, a, b) ->
    Ast.Cmp (op, lower_term env scope a, lower_term env scope b)
  | F_not f -> Ast.Not (lower_formula env scope f)
  | F_and (a, b) -> Ast.And (lower_formula env scope a, lower_formula env scope b)
  | F_or (a, b) -> Ast.Or (lower_formula env scope a, lower_formula env scope b)
  | F_some (v, r, f) ->
    Ast.Some_in (v, lower_range env scope r, lower_formula env scope f)
  | F_all (v, r, f) ->
    Ast.All_in (v, lower_range env scope r, lower_formula env scope f)
  | F_in (v, r) -> Ast.In_rel (v, lower_range env scope r)
  | F_member (ts, r) ->
    Ast.Member (List.map (lower_term env scope) ts, lower_range env scope r)

and lower_range env scope = function
  | R_name n -> Ast.Rel n
  | R_select (r, s, args) ->
    Ast.Select (lower_range env scope r, s, List.map (lower_arg env scope) args)
  | R_construct (r, c, args) ->
    Ast.Construct (lower_range env scope r, c, List.map (lower_arg env scope) args)
  | R_comp bs ->
    List.iter
      (fun (b : branch) ->
        if b.b_agg <> None then
          elab_error
            "aggregates (MIN/MAX/COUNT/SUM) are only allowed in constructor \
             branches, not in a comprehension")
      bs;
    Ast.Comp (List.map (lower_branch env scope) bs)

and lower_arg env scope = function
  | A_term t -> Ast.Arg_scalar (lower_term env scope t)
  | A_range r -> Ast.Arg_range (lower_range env scope r)
  | A_name n ->
    (* relation name (global, formal, or parameter) wins over scalar *)
    let is_rel = List.mem n scope.rel_names || is_relation env n in
    if is_rel then Ast.Arg_range (Ast.Rel n)
    else if List.mem n scope.scalar_names then Ast.Arg_scalar (Ast.Param n)
    else elab_error "unknown argument name %s" n

and lower_branch env scope (b : branch) =
  {
    Ast.binders = List.map (fun (v, r) -> (v, lower_range env scope r)) b.b_binders;
    target = List.map (lower_term env scope) b.b_target;
    where = lower_formula env scope b.b_where;
  }

let scope_of_params params =
  List.fold_left
    (fun scope p ->
      match p with
      | Defs.Rel_param (n, _) -> { scope with rel_names = n :: scope.rel_names }
      | Defs.Scalar_param (n, _) ->
        { scope with scalar_names = n :: scope.scalar_names })
    empty_scope params

(* ------------------------------------------------------------------ *)
(* Constant rows for INSERT/DELETE *)

let constant env = function
  | T_int i -> Value.Int i
  | T_float f -> Value.Float f
  | T_string s -> Value.str s
  | t ->
    ignore env;
    elab_error "INSERT/DELETE rows must be constants (got %s)"
      (match t with
      | T_field (v, a) -> v ^ "." ^ a
      | T_name n -> n
      | _ -> "expression")

let row env ts = Tuple.of_list (List.map (constant env) ts)

(* ------------------------------------------------------------------ *)
(* Declaration execution *)

(* A surface term rendered for error messages. *)
let rec surface_term_to_string = function
  | T_int i -> string_of_int i
  | T_float f -> string_of_float f
  | T_string s -> Fmt.str "%S" s
  | T_field (v, a) -> v ^ "." ^ a
  | T_name n -> n
  | T_binop (op, a, b) ->
    Fmt.str "(%s %a %s)" (surface_term_to_string a) Ast.pp_binop op
      (surface_term_to_string b)

(* The aggregate spec a constructor's branches declare: every targeted
   branch must carry the same operator, the same aggregated position, and
   the same grouping; the GROUP BY terms must be target terms.  Identity
   branches pass raw tuples through and are always allowed.  Positions
   index the raw target tuple — [Typecheck.aggregated_schema] turns them
   into the result schema, [Seminaive] into per-group accumulators. *)
let spec_of_branches c_name (body : branch list) =
  let spec_of (b : branch) =
    match b.b_agg with
    | None ->
      if b.b_group <> [] then
        elab_error "constructor %s: GROUP BY needs an aggregated target" c_name;
      None
    | Some (op, value) ->
      let position t =
        let rec find i = function
          | [] ->
            elab_error
              "constructor %s: GROUP BY term %s is not one of the branch's \
               target terms"
              c_name (surface_term_to_string t)
          | t' :: rest -> if t' = t then i else find (i + 1) rest
        in
        find 0 b.b_target
      in
      let group =
        match b.b_group with
        | [] ->
          (* default grouping: every non-aggregated target, in order *)
          List.filteri (fun i _ -> i <> value) b.b_target
          |> List.mapi (fun i _ -> if i < value then i else i + 1)
        | g -> List.map position g
      in
      if List.mem value group then
        elab_error
          "constructor %s: the aggregated term cannot also be grouped on"
          c_name;
      Some { Dc_agg.Agg.group; value; op }
  in
  let specs = List.filter_map spec_of body in
  match specs with
  | [] -> None
  | s :: rest ->
    if not (List.for_all (( = ) s) rest) then
      elab_error
        "constructor %s: every aggregated branch must use the same operator, \
         aggregated position, and grouping"
        c_name;
    List.iter
      (fun (b : branch) ->
        if b.b_agg = None && b.b_target <> [] then
          elab_error
            "constructor %s: mixes aggregated and plain targeted branches \
             (mark the target with %s or drop the aggregate)"
            c_name
            (Dc_agg.Agg.op_name s.Dc_agg.Agg.op))
      body;
    Some s

let lower_constructor env
    ({ c_name; c_formal; c_formal_type; c_params; c_result_type; c_body } :
      constructor_decl) =
  let params = List.map (elaborate_param env) c_params in
  let scope =
    let s = scope_of_params params in
    { s with rel_names = c_formal :: s.rel_names }
  in
  {
    Defs.con_name = c_name;
    con_formal = c_formal;
    con_formal_schema = resolve_relation_type env c_formal_type;
    con_params = params;
    con_result = resolve_relation_type env c_result_type;
    con_agg = spec_of_branches c_name c_body;
    con_body = List.map (lower_branch env scope) c_body;
  }

(* Statements allowed inside a BEGIN ... COMMIT read-only transaction:
   everything that doesn't mutate the shared database.  (EXPLAIN runs
   against the live planner but only reads.) *)
let read_only = function
  | D_query _ | D_print _ | D_explain _ | D_explain_analyze _
  | D_show_metrics | D_show_snapshot | D_begin | D_commit | D_type _
  | D_parallel _ ->
    true
  | D_var _ | D_selector _ | D_constructor _ | D_insert _ | D_delete _
  | D_assign _ | D_limit _ | D_materialize _ | D_maintain _
  | D_explain_update _ ->
    false

(* The catalog and the evaluation environment a read sees, the latter
   tracing into [trace]: the pinned snapshot of a BEGIN transaction or a
   served statement (with its limits), otherwise the live database. *)
let read_env ?trace env =
  match env.pinned with
  | Some snap -> (Snapshot.typecheck_env snap, Snapshot.eval_env ?trace snap)
  | None -> (Database.typecheck_env env.db, Database.eval_env ?trace env.db)

(* QUERY and PRINT run the plan EXPLAIN shows, over the state the read
   sees ({!Dc_core.Database.query} and {!Dc_core.Snapshot.query} stay the
   interpreter, the planned = direct differential's oracle). *)
let run_query ?trace env range =
  let catalog, eval_env = read_env ?trace env in
  let decision = Dc_compile.Planner.plan catalog range in
  Obs.Span.timed "execute" (fun () ->
      Dc_compile.Planner.execute eval_env decision)

(* EXPLAIN [ANALYZE]: plan the query against the catalog the statement
   reads, then run the decision under a trace over the same state, so it
   shows the physical operator pipelines actually executed, with their
   row/probe counters (ANALYZE: operator times and the fixpoint rounds
   too). *)
let explain env ~analyze range =
  let trace = Dc_exec.Ir.Trace.create () in
  let catalog, eval_env = read_env ~trace env in
  let decision = Dc_compile.Planner.plan catalog range in
  let header () =
    output env "%s %s@\n%a"
      (if analyze then "EXPLAIN ANALYZE" else "EXPLAIN")
      (Ast.range_to_string range)
      Dc_compile.Planner.explain decision
  in
  let run () =
    Obs.Span.timed "execute" (fun () ->
        Dc_compile.Planner.execute eval_env decision)
  in
  match if analyze then Dc_exec.Ir.profiled run else run () with
  | _ ->
    Dc_exec.Ir.Trace.register_metrics trace;
    header ();
    if not (Dc_exec.Ir.Trace.is_empty trace) then
      output env "physical:@\n%a"
        (if analyze then Dc_exec.Ir.Trace.pp_analyze else Dc_exec.Ir.Trace.pp)
        trace;
    (match Dc_exec.Ir.Trace.rounds trace with
    | log when analyze && log <> [] ->
      output env "fixpoint rounds:@\n";
      List.iteri
        (fun i (delta, ms) ->
          output env "  round %d: delta=%d time=%.2fms@\n" (i + 1) delta ms)
        log
    | _ -> ());
    output env "@\n"
  | exception Guard.Exhausted (reason, progress) ->
    header ();
    output env "%a@\n@\n" Guard.pp_report (reason, progress)

(* BEGIN: pin [snap] for the session's reads until COMMIT. *)
let begin_transaction env snap =
  if Option.is_some env.pinned then
    elab_error "BEGIN: a transaction is already open";
  env.pinned <- Some snap;
  output env "BEGIN@\npinned snapshot version %d@\n@\n" (Snapshot.version snap)

let execute_decl env decl =
  (match (env.pinned, read_only decl) with
  | Some _, false ->
    elab_error
      "statement not allowed inside BEGIN ... COMMIT (read-only snapshot \
       transaction)"
  | _ -> ());
  match decl with
  | D_type (name, ty) -> elaborate_type env name ty
  | D_var (name, tyname) ->
    Database.declare env.db name (resolve_relation_type env tyname)
  | D_selector { s_name; s_params; s_formal; s_formal_type; s_var; s_range; s_pred }
    ->
    if not (String.equal s_range s_formal) then
      elab_error "selector %s: body ranges over %s, not the formal %s" s_name
        s_range s_formal;
    let params = List.map (elaborate_param env) s_params in
    let scope =
      let s = scope_of_params params in
      { s with rel_names = s_formal :: s.rel_names }
    in
    Database.define_selector env.db
      {
        Defs.sel_name = s_name;
        sel_formal = s_formal;
        sel_formal_schema = resolve_relation_type env s_formal_type;
        sel_params = params;
        sel_var = s_var;
        sel_pred = lower_formula env scope s_pred;
      }
  | D_constructor c -> Database.define_constructor env.db (lower_constructor env c)
  | D_insert (name, rows) ->
    Database.insert_all env.db name (List.map (row env) rows)
  | D_delete (name, rows) ->
    Database.update_batch env.db [ (name, [], List.map (row env) rows) ]
  | D_assign (name, None, _, r) ->
    Database.assign env.db name (lower_range env empty_scope r)
  | D_assign (name, Some sel, args, r) ->
    let args = List.map (lower_arg env empty_scope) args in
    Database.assign_selected env.db name ~selector:sel ~args
      (lower_range env empty_scope r)
  | D_limit items ->
    (* SET LIMIT merges the listed budgets into the database's declarative
       limits; SET LIMIT NONE (an empty item list) clears them all. *)
    let limits =
      match items with
      | [] -> Guard.no_limits
      | items ->
        List.fold_left
          (fun l (kind, n) ->
            match kind with
            | L_rows -> { l with Guard.l_rows = Some n }
            | L_rounds -> { l with Guard.l_rounds = Some n }
            | L_millis -> { l with Guard.l_millis = Some n })
          (Database.limits env.db) items
    in
    Database.set_limits env.db limits
  | D_query r | D_print r -> (
    let range = lower_range env empty_scope r in
    (* under metrics, queries on the live database run traced so the
       registry accumulates per-operator row totals even without
       EXPLAIN; a pinned transaction reads its frozen snapshot *)
    let trace =
      if Option.is_none env.pinned && Obs.on () then
        Some (Dc_exec.Ir.Trace.create ())
      else None
    in
    match run_query ?trace env range with
    | result ->
      Option.iter Dc_exec.Ir.Trace.register_metrics trace;
      output env "QUERY %s@\n%a@\n@\n"
        (Ast.range_to_string range)
        Relation.pp_table result
    | exception Guard.Exhausted (reason, progress) ->
      output env "QUERY %s@\n%a@\n@\n"
        (Ast.range_to_string range)
        Guard.pp_report (reason, progress))
  | D_explain r -> explain env ~analyze:false (lower_range env empty_scope r)
  | D_explain_analyze r ->
    explain env ~analyze:true (lower_range env empty_scope r)
  | D_materialize r -> (
    let range = lower_range env empty_scope r in
    match range with
    | Ast.Construct (Ast.Rel base, constructor, args) -> (
      match Ivm.materialize env.db ~constructor ~base ~args with
      | view ->
        output env "MATERIALIZE %s@\nview %s: %s, %d tuples@\n@\n"
          (Ast.range_to_string range)
          (Ivm.name view) (Ivm.plan_kind view) (Ivm.cardinal view)
      | exception Ivm.Error msg -> elab_error "%s" msg)
    | _ ->
      elab_error
        "MATERIALIZE expects a constructor application Rel{con(args)}, got %s"
        (Ast.range_to_string range))
  | D_maintain on ->
    Database.set_maintain env.db on;
    output env "SET MAINTAIN %s@\n@\n" (if on then "ON" else "OFF")
  | D_parallel d ->
    (match d with
    | Some n -> Dc_par.Par.set_domains n
    | None -> Dc_par.Par.reset_domains ());
    output env "SET PARALLEL %d@\n@\n" (Dc_par.Par.domains ())
  | D_explain_update { eu_analyze; eu_delete; eu_rel; eu_rows } -> (
    let rows = List.map (row env) eu_rows in
    let verb = if eu_delete then "DELETE" else "INSERT" in
    let header () =
      output env "EXPLAIN%s %s %s@\n"
        (if eu_analyze then " ANALYZE" else "")
        verb eu_rel
    in
    Ivm.reset_reports ();
    let adds, removes = if eu_delete then ([], rows) else (rows, []) in
    match Database.update_batch env.db [ (eu_rel, adds, removes) ] with
    | () ->
      header ();
      (match Ivm.reports () with
      | [] -> output env "no maintained views over %s@\n" eu_rel
      | reports ->
        List.iter (fun rp -> output env "%a@\n" Ivm.pp_report rp) reports);
      output env "@\n"
    | exception Guard.Exhausted (reason, progress) ->
      header ();
      output env "%a@\n@\n" Guard.pp_report (reason, progress))
  | D_show_metrics ->
    output env "SHOW METRICS@\n%s@\n" (Obs.to_prometheus ())
  | D_show_snapshot ->
    (* inside a transaction this describes the pinned version, otherwise
       the latest published one *)
    let snap =
      match env.pinned with
      | Some s -> s
      | None -> Database.snapshot env.db
    in
    output env "SHOW SNAPSHOT@\n%a@\n@\n" Snapshot.pp_summary snap
  | D_begin -> begin_transaction env (Database.snapshot env.db)
  | D_commit -> (
    match env.pinned with
    | None -> elab_error "COMMIT without BEGIN"
    | Some snap ->
      env.pinned <- None;
      output env "COMMIT@\nreleased snapshot version %d@\n@\n"
        (Snapshot.version snap))

(* Run a whole surface program; returns accumulated QUERY/EXPLAIN output.
   Consecutive CONSTRUCTOR declarations are defined as one group, so
   mutually recursive constructors typecheck — write them adjacently, as
   the paper's listings do. *)
let run env (p : program) =
  (* Observability directives imply observability: a program that asks for
     EXPLAIN ANALYZE or SHOW METRICS gets the registry populated without
     needing DC_METRICS in the environment.  Enabling is sticky — the
     registry keeps accumulating for later SHOW METRICS in the session. *)
  if
    (not (Obs.on ()))
    && List.exists
         (function
           | D_explain_analyze _ | D_show_metrics
           | D_explain_update { eu_analyze = true; _ } ->
             true
           | _ -> false)
         p
  then Obs.set_enabled true;
  let flush pending =
    match pending with
    | [] -> ()
    | group ->
      if env.pinned <> None then
        elab_error
          "statement not allowed inside BEGIN ... COMMIT (read-only \
           snapshot transaction)";
      Database.define_constructors env.db
        (List.rev_map (lower_constructor env) group)
  in
  let pending =
    List.fold_left
      (fun pending decl ->
        match decl with
        | D_constructor c -> c :: pending
        | d ->
          flush pending;
          execute_decl env d;
          [])
      [] p
  in
  flush pending;
  drain_output env

(* Lower a standalone query range; [params] are the scalar parameters in
   scope (a statement cache's lifted literals), none by default. *)
let lower_query ?(params = []) env r =
  lower_range env { empty_scope with scalar_names = params } r

let run_string ?db src =
  let db = Option.value db ~default:(Database.create ()) in
  let env = create db in
  let program = Obs.Span.timed "parse" (fun () -> Parser.parse src) in
  let out = run env program in
  (db, out)
