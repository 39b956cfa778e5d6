(* Set-oriented evaluation of calculus expressions.

   This is the paper's "set-construction framework": branches are executed
   as pipelined scans with hash-index lookups for equi-join conjuncts, not
   tuple-at-a-time resolution.  The evaluator is parameterized by hooks for
   selector and constructor application so that [Dc_core] can install the
   fixpoint semantics without a dependency cycle.

   Branch evaluation is a *lowering* onto the shared physical operator IR
   ({!Dc_exec.Ir}): binders become scans / keyed probes, WHERE conjuncts
   become index keys or filter operators at the earliest position where
   they are closed, and the resulting pipeline runs on the one executor
   all engines share.  The row threaded through the pipeline is an array
   of binder slots, read by terms and formulas compiled once per lowering
   (see "Slot rows" below).  Join
   order is delegated to the IR-level rewrite ({!Dc_exec.Join_order}):
   keyed probes first, then smallest pre-evaluated range — which in a
   semi-naive fixpoint round turns "scan the base, probe the delta" into
   "scan the delta, probe the base", with the probed indexes staying warm
   in [env.icache] across rounds. *)

open Dc_relation
open Ast
module Guard = Dc_guard.Guard

exception Runtime_error of string

let runtime_error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

module SM = Map.Make (String)

type arg_value =
  | V_scalar of Value.t
  | V_rel of Relation.t

type binding = { b_tuple : Tuple.t; b_schema : Schema.t }

type env = {
  rels : Relation.t SM.t;
  vars : binding SM.t;
  scalars : Value.t SM.t;
  hooks : hooks;
  icache : Index_cache.t;
  trace : Dc_exec.Ir.trace option;
  guard : Guard.t;
}

and hooks = {
  selector_def : string -> Defs.selector_def option;
  constructor_def : string -> Defs.constructor_def option;
  on_select : env -> Relation.t -> Defs.selector_def -> arg_value list -> Relation.t;
  on_construct :
    env -> Relation.t -> Defs.constructor_def -> arg_value list -> Relation.t;
}

let no_hooks =
  {
    selector_def = (fun _ -> None);
    constructor_def = (fun _ -> None);
    on_select = (fun _ _ def _ -> runtime_error "no semantics for selector %s" def.Defs.sel_name);
    on_construct =
      (fun _ _ def _ -> runtime_error "no semantics for constructor %s" def.Defs.con_name);
  }

let make_env ?(vars = []) ?(scalars = []) ?(hooks = no_hooks) ?trace
    ?(guard = Guard.none) rels =
  {
    rels = SM.of_seq (List.to_seq rels);
    vars =
      SM.of_seq
        (List.to_seq
           (List.map (fun (v, t, s) -> (v, { b_tuple = t; b_schema = s })) vars));
    scalars = SM.of_seq (List.to_seq scalars);
    hooks;
    icache = Index_cache.create ();
    trace;
    guard;
  }

let with_trace env trace = { env with trace = Some trace }

let with_guard env guard = { env with guard }

let bind_rel env name rel = { env with rels = SM.add name rel env.rels }

(* Drop all tuple-variable bindings (used when a definition body is
   evaluated in a fresh scope: bodies never reference outer tuple vars). *)
let clear_vars env = { env with vars = SM.empty }

let bind_var env v tuple schema =
  { env with vars = SM.add v { b_tuple = tuple; b_schema = schema } env.vars }

let bind_scalar env name v = { env with scalars = SM.add name v env.scalars }

let lookup_rel env n =
  match SM.find_opt n env.rels with
  | Some r -> r
  | None -> runtime_error "unknown relation %s" n

(* Build the body-evaluation environment for an application: formal bound
   to the base value, parameters bound to the argument values, outer tuple
   variables dropped. *)
let application_env env (def : Defs.constructor_def) base args =
  if List.length args <> List.length def.con_params then
    runtime_error "constructor %s expects %d argument(s), got %d"
      def.con_name
      (List.length def.con_params)
      (List.length args);
  (* Actual base and relation arguments are viewed at the formal types, so
     the body's attribute names resolve regardless of the actual names. *)
  let env =
    bind_rel (clear_vars env) def.con_formal
      (Relation.with_schema def.con_formal_schema base)
  in
  List.fold_left2
    (fun env param arg ->
      match param, arg with
      | Defs.Scalar_param (n, _), V_scalar v -> bind_scalar env n v
      | Defs.Rel_param (n, schema), V_rel r ->
        bind_rel env n (Relation.with_schema schema r)
      | Defs.Scalar_param (n, _), V_rel _ ->
        runtime_error "constructor %s: parameter %s expects a scalar"
          def.con_name n
      | Defs.Rel_param (n, _), V_scalar _ ->
        runtime_error "constructor %s: parameter %s expects a relation"
          def.con_name n)
    env def.con_params args

let selector_def env s =
  match env.hooks.selector_def s with
  | Some d -> d
  | None -> runtime_error "unknown selector %s" s

let constructor_def env c =
  match env.hooks.constructor_def c with
  | Some d -> d
  | None -> runtime_error "unknown constructor %s" c

(* ------------------------------------------------------------------ *)
(* Schema of a range expression, computed without evaluating it. *)

let rec range_schema env ctx = function
  | Rel n -> Relation.schema (lookup_rel env n)
  | Select (r, _, _) -> range_schema env ctx r
  | Construct (_, c, _) -> (constructor_def env c).Defs.con_result
  | Comp [] -> runtime_error "empty comprehension"
  | Comp (b :: _) -> branch_schema env ctx b

and branch_schema env ctx { binders; target; _ } =
  let ctx' =
    List.fold_left
      (fun ctx' (v, r) -> (v, range_schema env ctx' r) :: ctx')
      ctx binders
  in
  match target with
  | [] -> (
    match binders with
    | [ (_, r) ] -> range_schema env ctx r
    | _ -> runtime_error "identity branch must have exactly one binder")
  | ts -> Typecheck.target_schema (term_ty env ctx') ts

and term_ty env ctx = function
  | Const v -> Value.type_of v
  | Param p -> (
    match SM.find_opt p env.scalars with
    | Some v -> Value.type_of v
    | None -> runtime_error "unknown scalar parameter %s" p)
  | Field (v, a) -> (
    let schema =
      match List.assoc_opt v ctx with
      | Some s -> s
      | None -> (
        match SM.find_opt v env.vars with
        | Some b -> b.b_schema
        | None -> runtime_error "unbound tuple variable %s" v)
    in
    match Schema.find_attr schema a with
    | Some i -> Schema.attr_ty schema i
    | None -> runtime_error "no attribute %s on %s" a v)
  | Binop (_, a, _) -> term_ty env ctx a

(* ------------------------------------------------------------------ *)
(* Terms and formulas *)

let rec eval_term env = function
  | Const v -> v
  | Param p -> (
    match SM.find_opt p env.scalars with
    | Some v -> v
    | None -> runtime_error "unknown scalar parameter %s" p)
  | Field (v, a) -> (
    match SM.find_opt v env.vars with
    | None -> runtime_error "unbound tuple variable %s" v
    | Some b -> Tuple.get b.b_tuple (Schema.attr_index b.b_schema a))
  | Binop (op, a, b) -> (
    let va = eval_term env a and vb = eval_term env b in
    match op with
    | Add -> Value.add va vb
    | Sub -> Value.sub va vb
    | Mul -> Value.mul va vb)

(* ------------------------------------------------------------------ *)
(* Slot rows.

   A lowered branch threads a [Tuple.t array] through its pipeline: one
   slot per binder in join order, filled by that binder's scan or probe.
   Terms, keys and WHERE conjuncts compile once per lowering into
   closures that read a slot at a precomputed attribute index; outer
   tuple variables and scalar parameters are constants of the lowering.
   Only formulas that range over relations (quantifiers, membership) and
   correlated ranges need an [env]: it is rebuilt from the filled slots
   when they run.  Lookup failures are deferred to the first run, where
   the environment-based evaluator would have raised them. *)

type row = Tuple.t array

(* The slots filled at a point of a pipeline, innermost binder first. *)
type bound = (Ast.var * int * Schema.t) list

(* Placeholder of a not-yet-filled slot; never read. *)
let unfilled = Tuple.of_list []

let deferred e = fun (_ : row) -> raise e

(* [env] extended with the filled slots, as the binders bound them. *)
let row_env env (bound : bound) =
  match bound with
  | [] -> fun (_ : row) -> env
  | _ ->
    let bound = List.rev bound in
    fun row ->
      List.fold_left
        (fun env (v, i, schema) -> bind_var env v (Array.unsafe_get row i) schema)
        env bound

let rec compile_term env (bound : bound) : term -> row -> Value.t = function
  | Const v -> fun _ -> v
  | Param p -> (
    match SM.find_opt p env.scalars with
    | Some v -> fun _ -> v
    | None -> fun _ -> runtime_error "unknown scalar parameter %s" p)
  | Field (v, a) -> (
    match List.find_opt (fun (v', _, _) -> String.equal v v') bound with
    | Some (_, i, schema) -> (
      match Schema.attr_index schema a with
      | j -> fun row -> Tuple.get (Array.unsafe_get row i) j
      | exception e -> deferred e)
    | None -> (
      match SM.find_opt v env.vars with
      | None -> fun _ -> runtime_error "unbound tuple variable %s" v
      | Some b -> (
        match Tuple.get b.b_tuple (Schema.attr_index b.b_schema a) with
        | x -> fun _ -> x
        | exception e -> deferred e)))
  | Binop (op, a, b) -> (
    let fa = compile_term env bound a and fb = compile_term env bound b in
    match op with
    | Add -> fun row -> Value.add (fa row) (fb row)
    | Sub -> fun row -> Value.sub (fa row) (fb row)
    | Mul -> fun row -> Value.mul (fa row) (fb row))

(* One binder of a lowered branch, in join order. *)
type step = {
  var : Ast.var;
  schema : Schema.t;
  source : step_source;
  keys : (string * term) list; (* [attr = closed term]; [] scans *)
  filters : formula list; (* conjuncts closed once [var] is bound *)
}

and step_source =
  | Fixed of Relation.t * string (* evaluated range, EXPLAIN label *)
  | Correlated of (env -> Relation.t)
      (* re-evaluated per row, under the slots filled before it *)

(* Outer tuple variables visible in a branch: the env's, minus those a
   binder of the branch shadows. *)
let outer_vars env (b : branch) =
  SM.fold
    (fun v _ s ->
      if List.mem_assoc v b.binders then s else Vars.S.add v s)
    env.vars Vars.S.empty

(* ------------------------------------------------------------------ *)
(* Join scheduling

   The one rule that orders a branch's binders and places its WHERE
   conjuncts, shared by the evaluator (per lowering, with the sizes of
   its pre-evaluated ranges) and the compiled plans (once, with no
   sizes).  Conjuncts needing no binder are prefilters: they gate the
   whole branch.  Binder order is the IR-level rewrite
   {!Dc_exec.Join_order}: keyed probes first, then the smallest known
   range, with ranges that mention earlier binders placed after them.
   Every other conjunct sits at the last join position among the
   binders it needs; there a conjunct [v.a = t] (or [t = v.a]) whose [t]
   the earlier positions close is an index key, any other conjunct a
   filter. *)

let prefilters ~outer ({ binders; where; _ } : branch) =
  List.filter
    (fun f ->
      let needed = Vars.S.diff (Vars.free_vars_formula f) outer in
      not (List.exists (fun (v, _) -> Vars.S.mem v needed) binders))
    (conjuncts where)

type placed = {
  p_binder : int; (* the binder's position in the branch *)
  p_keys : (string * term) list;
  p_filters : formula list;
}

let schedule ~card ~outer ({ binders; where; _ } : branch) =
  let conjs = conjuncts where in
  let var i = fst (List.nth binders i) in
  let order =
    match binders with
    | [] | [ _ ] -> List.mapi (fun i _ -> i) binders
    | _ ->
      let var_pos = List.mapi (fun i (v, _) -> (v, i)) binders in
      let key_conjs =
        (* (binder var, term that must be closed) per equality conjunct *)
        List.filter_map
          (function
            | Cmp (Eq, Field (v, _), t) when List.mem_assoc v var_pos ->
              Some (v, t)
            | Cmp (Eq, t, Field (v, _)) when List.mem_assoc v var_pos ->
              Some (v, t)
            | _ -> None)
          conjs
      in
      Dc_exec.Join_order.order
        (List.mapi
           (fun i (v, r) ->
             let deps =
               Vars.S.fold
                 (fun fv deps ->
                   match List.assoc_opt fv var_pos with
                   | Some j when j < i -> j :: deps
                   | _ -> deps)
                 (Vars.free_vars_range r) []
             in
             let keys_given placed =
               let bound =
                 List.fold_left (fun s j -> Vars.S.add (var j) s) outer placed
               in
               List.length
                 (List.filter
                    (fun (v', t) ->
                      v' = v && Vars.S.subset (Vars.free_vars_term t) bound)
                    key_conjs)
             in
             { Dc_exec.Join_order.deps; card = card i; keys_given })
           binders)
  in
  let vars = List.map var order in
  let position f =
    let needed = Vars.S.diff (Vars.free_vars_formula f) outer in
    let rec last i best = function
      | [] -> best
      | v :: rest -> last (i + 1) (if Vars.S.mem v needed then i else best) rest
    in
    last 0 (-1) vars
  in
  let tagged = List.map (fun f -> (position f, f)) conjs in
  let rec place i bound = function
    | [] -> []
    | b :: rest ->
      let v = var b in
      let closed t = Vars.S.subset (Vars.free_vars_term t) bound in
      let p_keys, p_filters =
        List.partition_map
          (function
            | Cmp (Eq, Field (v', a), t) when v' = v && closed t ->
              Either.Left (a, t)
            | Cmp (Eq, t, Field (v', a)) when v' = v && closed t ->
              Either.Left (a, t)
            | f -> Either.Right f)
          (List.filter_map
             (fun (j, f) -> if j = i then Some f else None)
             tagged)
      in
      { p_binder = b; p_keys; p_filters }
      :: place (i + 1) (Vars.S.add v bound) rest
  in
  place 0 outer order

let eval_cmp op a b =
  let c = Value.compare a b in
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let rec eval_formula env = function
  | True -> true
  | False -> false
  | Cmp (op, a, b) -> eval_cmp op (eval_term env a) (eval_term env b)
  | Not f -> not (eval_formula env f)
  | And (a, b) -> eval_formula env a && eval_formula env b
  | Or (a, b) -> eval_formula env a || eval_formula env b
  | Some_in (v, r, f) ->
    let rel = eval_range env r in
    let schema = Relation.schema rel in
    Relation.exists (fun t -> eval_formula (bind_var env v t schema) f) rel
  | All_in (v, r, f) ->
    let rel = eval_range env r in
    let schema = Relation.schema rel in
    Relation.for_all (fun t -> eval_formula (bind_var env v t schema) f) rel
  | In_rel (v, r) -> (
    match SM.find_opt v env.vars with
    | None -> runtime_error "unbound tuple variable %s" v
    | Some b -> Relation.mem b.b_tuple (eval_range env r))
  | Member (ts, r) ->
    let t = Tuple.of_list (List.map (eval_term env) ts) in
    Relation.mem t (eval_range env r)

(* ------------------------------------------------------------------ *)
(* Ranges and branches *)

and eval_range env = function
  | Rel n -> lookup_rel env n
  | Select (r, s, args) ->
    let base = eval_range env r in
    let def = selector_def env s in
    env.hooks.on_select env base def (eval_args env args)
  | Construct (r, c, args) ->
    let base = eval_range env r in
    let def = constructor_def env c in
    env.hooks.on_construct env base def (eval_args env args)
  | Comp branches -> eval_comp env branches

and eval_args env args =
  List.map
    (function
      | Arg_scalar t -> V_scalar (eval_term env t)
      | Arg_range r -> V_rel (eval_range env r))
    args

and eval_comp ?schema env branches =
  match branches with
  | [] -> runtime_error "empty comprehension"
  | first :: _ ->
    (* The result schema may be imposed from outside (a constructor's
       declared result type); branches are positionally compatible. *)
    let schema =
      match schema with
      | Some s -> s
      | None -> branch_schema env [] first
    in
    List.fold_left
      (fun acc b ->
        eval_branch env b ~emit:(fun acc t -> Relation.add_unchecked t acc) acc)
      (Relation.empty schema) branches

(* Lower one branch onto the operator IR (no execution): binders become
   scan/probe steps and WHERE conjuncts index keys or filters, as
   {!schedule} places them ([eval_branch] has already checked the
   prefilters; [outer] are the outer variables visible in the branch).
   Uncorrelated ranges are evaluated once,
   here, and wrapped as fixed extents over [env.icache]-backed indexes;
   correlated ranges become correlated scans re-evaluated per outer row.

   Scoping is sequential, as in the typechecker: the WHERE clause and the
   target see every binder, each shadowing an outer tuple variable of the
   same name, while a binder's range sees the outer variables and the
   binders before it.  (Typechecked programs never shadow an outer
   variable with a binder; the evaluator still defines the case.) *)
and lower_branch env ~outer ({ binders; target; _ } as branch) =
  let binder_arr = Array.of_list binders in
  (* A range closed under the outer variables its earlier binders leave
     visible is evaluated now; any other range is correlated.  The
     evaluated sizes are the scheduler's cardinalities: keyed probes
     first, then the smallest range, which in a semi-naive fixpoint round
     turns "scan the base, probe the delta" into "scan the delta, probe
     the base". *)
  let env_vars = SM.fold (fun v _ s -> Vars.S.add v s) env.vars Vars.S.empty in
  let evaled =
    Array.mapi
      (fun i (_, r) ->
        let visible =
          List.fold_left
            (fun s (v, _) -> Vars.S.remove v s)
            env_vars (List.filteri (fun j _ -> j < i) binders)
        in
        if Vars.S.subset (Vars.free_vars_range r) visible then
          Some (eval_range env r)
        else None)
      binder_arr
  in
  let placed =
    schedule
      ~card:(fun i -> Option.map Relation.cardinal evaled.(i))
      ~outer branch
  in
  let schemas_so_far = ref [] in
  let steps =
    List.map
      (fun { p_binder; p_keys = keys; p_filters = filters } ->
        let v, range = binder_arr.(p_binder) in
        match evaled.(p_binder) with
        | None ->
          let schema = range_schema env !schemas_so_far range in
          schemas_so_far := (v, schema) :: !schemas_so_far;
          { var = v; schema; source = Correlated (fun env -> eval_range env range);
            keys; filters }
        | Some rel ->
          let schema = Relation.schema rel in
          schemas_so_far := (v, schema) :: !schemas_so_far;
          let src_label =
            match range with
            | Rel n -> n
            | _ -> "<computed>"
          in
          { var = v; schema; source = Fixed (rel, src_label); keys; filters })
      placed
  in
  lower_steps env steps ~target

and compile_formula env (bound : bound) : formula -> row -> bool = function
  | True -> fun _ -> true
  | False -> fun _ -> false
  | Cmp (op, a, b) -> (
    let fa = compile_term env bound a and fb = compile_term env bound b in
    match op with
    | Eq -> fun row -> Value.compare (fa row) (fb row) = 0
    | Ne -> fun row -> Value.compare (fa row) (fb row) <> 0
    | Lt -> fun row -> Value.compare (fa row) (fb row) < 0
    | Le -> fun row -> Value.compare (fa row) (fb row) <= 0
    | Gt -> fun row -> Value.compare (fa row) (fb row) > 0
    | Ge -> fun row -> Value.compare (fa row) (fb row) >= 0)
  | Not f ->
    let g = compile_formula env bound f in
    fun row -> not (g row)
  | And (a, b) ->
    let ga = compile_formula env bound a and gb = compile_formula env bound b in
    fun row -> ga row && gb row
  | Or (a, b) ->
    let ga = compile_formula env bound a and gb = compile_formula env bound b in
    fun row -> ga row || gb row
  | (Some_in _ | All_in _ | In_rel _ | Member _) as f ->
    let env_of = row_env env bound in
    fun row -> eval_formula (env_of row) f

(* Build the slot-row pipeline of a step list: each step scans or probes
   its source into its slot, its filters follow it, and the project reads
   the target off the slots.  [prefilters] are closed before any binder
   and filter the seed row.  A correlated step's keys degrade to filters. *)
and lower_steps ?label ?(prefilters = []) env steps ~target =
  let module Ir = Dc_exec.Ir in
  let add_filters bound filters node =
    List.fold_left
      (fun node f ->
        Ir.filter
          ~label:(lazy (Fmt.str "%a" Ast.pp_formula f))
          ~pred:(compile_formula env bound f)
          node)
      node filters
  in
  let bound, node =
    List.fold_left
      (fun (bound, node) st ->
        let i = List.length bound in
        let bind (row : row) t =
          Array.unsafe_set row i t;
          Some row
        in
        let node, filters =
          match st.source with
          | Correlated range ->
            let env_of = row_env env bound in
            let gen row =
              Dc_exec.Extent.of_relation ~label:st.var ~cache:env.icache
                (range (env_of row))
            in
            ( Ir.correlated_scan ~label:(lazy (st.var ^ " IN ...")) ~gen ~bind node,
              List.map (fun (a, t) -> Cmp (Eq, Field (st.var, a), t)) st.keys
              @ st.filters )
          | Fixed (rel, src_label) ->
            let ext =
              Dc_exec.Extent.of_relation ~label:src_label ~cache:env.icache rel
            in
            let node =
              match st.keys with
              | [] ->
                Ir.scan
                  ~label:(lazy (st.var ^ " IN " ^ src_label))
                  ~src:(Ir.Fixed ext) ~bind node
              | keys ->
                let positions =
                  List.map (fun (a, _) -> Schema.attr_index st.schema a) keys
                in
                let key_fns =
                  List.map (fun (_, t) -> compile_term env bound t) keys
                in
                let key row = List.map (fun f -> f row) key_fns in
                Ir.lookup
                  ~label:
                    (lazy
                      (Fmt.str "%s IN %s on (%s)" st.var src_label
                         (String.concat ", " (List.map fst keys))))
                  ~src:(Ir.Fixed ext) ~positions ~key ~bind node
            in
            (node, st.filters)
        in
        let bound = (st.var, i, st.schema) :: bound in
        (bound, add_filters bound filters node))
      ([], add_filters [] prefilters (Ir.seed ()))
      steps
  in
  let n = List.length steps in
  let tuple =
    match target with
    | [] -> (
      match steps with
      | [ _ ] -> fun row -> Array.unsafe_get row 0
      | _ -> fun _ -> runtime_error "identity branch must have exactly one binder")
    | ts -> (
      match List.map (compile_term env bound) ts with
      | [ a ] -> fun row -> Tuple.make1 (a row)
      | [ a; b ] -> fun row -> Tuple.make2 (a row) (b row)
      | [ a; b; c ] -> fun row -> Tuple.make3 (a row) (b row) (c row)
      | fs ->
        let fs = Array.of_list fs in
        fun row -> Tuple.init (Array.length fs) (fun j -> fs.(j) row))
  in
  let label =
    match label with
    | Some l -> Lazy.from_val l
    | None ->
      lazy
        (match target with
        | [] ->
          Fmt.str "[%s]" (String.concat ", " (List.map (fun st -> st.var) steps))
        | ts ->
          Fmt.str "<%s>"
            (String.concat ", "
               (List.map (fun t -> Fmt.str "%a" Ast.pp_term t) ts)))
  in
  Ir.project ~label ~init:(fun () -> Array.make n unfilled) ~tuple node

(* Evaluate one branch, folding [emit] over the produced tuples.
   Conjuncts closed by the outer env alone gate the whole branch before
   any range is evaluated or lowered. *)
and eval_branch : 'a. env -> branch -> emit:('a -> Tuple.t -> 'a) -> 'a -> 'a =
  fun env branch ~emit acc ->
  let module Ir = Dc_exec.Ir in
  let outer = outer_vars env branch in
  if not (List.for_all (eval_formula env) (prefilters ~outer branch)) then acc
  else begin
    if !Guard.Failpoint.armed then
      Guard.Failpoint.hit ~guard:env.guard "eval.branch";
    let pipeline = lower_branch env ~outer branch in
    (match env.trace with
    | Some tr ->
      Ir.Trace.record tr ~label:(Lazy.force pipeline.Ir.tlabel) pipeline
    | None -> ());
    let acc = ref acc in
    Ir.run ~guard:env.guard Ir.empty_ctx pipeline (fun t -> acc := emit !acc t);
    !acc
  end

(* Convenience: evaluate a query range to a relation. *)
let query env range = eval_range env range
