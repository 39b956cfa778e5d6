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
   all engines share.  The row threaded through the pipeline is the
   environment itself, so terms and formulas evaluate unchanged.  Join
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
  | ts ->
    let used = Hashtbl.create 8 in
    let attr i t =
      let base =
        match t with
        | Field (_, a) -> a
        | _ -> Fmt.str "c%d" i
      in
      let name =
        if Hashtbl.mem used base then Fmt.str "%s_%d" base i else base
      in
      Hashtbl.replace used name ();
      (name, term_ty env ctx' t)
    in
    Schema.make (List.mapi attr ts)

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
   scan/probe operators in the order the shared {!Dc_exec.Join_order}
   rewrite picks, WHERE conjuncts become index keys or filter operators at
   the earliest closed position.  Uncorrelated ranges are evaluated once,
   here, and wrapped as fixed extents over [env.icache]-backed indexes;
   correlated ranges become correlated scans re-evaluated per outer row. *)
and lower_branch env { binders; target; where } =
  let module Ir = Dc_exec.Ir in
  let conjs = conjuncts where in
  (* Variables already bound in the enclosing env count as position 0. *)
  let outer = SM.fold (fun v _ s -> Vars.S.add v s) env.vars Vars.S.empty in
  let position_of_conj binder_vars f =
    let fv = Vars.free_vars_formula f in
    let needed = Vars.S.diff fv outer in
    let rec last_index i best = function
      | [] -> best
      | v :: rest ->
        last_index (i + 1) (if Vars.S.mem v needed then i else best) rest
    in
    last_index 0 (-1) binder_vars
  in
  let binder_vars = List.map fst binders in
  (* Join reorder (IR rewrite rule): keyed probes first, then the smallest
     pre-evaluated range; ranges mentioning earlier binders impose
     dependencies.  Pre-evaluation of closed ranges happens once here (it
     was due anyway) and doubles as the cardinality estimate. *)
  let binder_arr = Array.of_list binders in
  let evaled =
    Array.map
      (fun (_, r) ->
        if Vars.S.subset (Vars.free_vars_range r) outer then
          Some (eval_range env r)
        else None)
      binder_arr
  in
  let order =
    if Array.length binder_arr <= 1 then
      List.init (Array.length binder_arr) Fun.id
    else begin
      let var_pos = List.mapi (fun i v -> (v, i)) binder_vars in
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
      let candidates =
        Array.to_list
          (Array.mapi
             (fun i (v, r) ->
               let deps =
                 Vars.S.fold
                   (fun fv deps ->
                     match List.assoc_opt fv var_pos with
                     | Some j when j <> i -> j :: deps
                     | _ -> deps)
                   (Vars.free_vars_range r) []
               in
               let card =
                 Option.map Relation.cardinal evaled.(i)
               in
               let keys_given placed =
                 let bound =
                   List.fold_left
                     (fun s j -> Vars.S.add (fst binder_arr.(j)) s)
                     outer placed
                 in
                 List.length
                   (List.filter
                      (fun (v', t) ->
                        v' = v
                        && Vars.S.subset (Vars.free_vars_term t) bound)
                      key_conjs)
               in
               { Dc_exec.Join_order.deps; card; keys_given })
             binder_arr)
      in
      Dc_exec.Join_order.order candidates
    end
  in
  let binders = List.map (fun i -> binder_arr.(i)) order in
  let evaled = List.map (fun i -> evaled.(i)) order in
  let binder_vars = List.map fst binders in
  let tagged = List.map (fun f -> (position_of_conj binder_vars f, f)) conjs in
  let bound_before i =
    List.filteri (fun j _ -> j < i) binder_vars
    |> List.fold_left (fun s v -> Vars.S.add v s) outer
  in
  (* Build the pipeline bottom-up; the row is the environment itself. *)
  let schemas_so_far = ref [] in
  let add_filters filters node =
    List.fold_left
      (fun node f ->
        Ir.filter
          ~label:(lazy (Fmt.str "%a" Ast.pp_formula f))
          ~pred:(fun env -> eval_formula env f)
          node)
      node filters
  in
  let node =
    List.fold_left
      (fun (i, node) ((v, range), pre_rel) ->
        let here =
          List.filter_map (fun (j, f) -> if j = i then Some f else None) tagged
        in
        let closed_term t =
          Vars.S.subset (Vars.free_vars_term t) (bound_before i)
        in
        let keys, filters =
          List.partition_map
            (fun f ->
              match f with
              | Cmp (Eq, Field (v', a), t) when v' = v && closed_term t ->
                Either.Left (a, t)
              | Cmp (Eq, t, Field (v', a)) when v' = v && closed_term t ->
                Either.Left (a, t)
              | _ -> Either.Right f)
            here
        in
        let correlated =
          not (Vars.S.subset (Vars.free_vars_range range) outer)
        in
        let node =
          if correlated then begin
            (* Key conjuncts degrade to filters on a correlated range. *)
            let schema = range_schema env !schemas_so_far range in
            schemas_so_far := (v, schema) :: !schemas_so_far;
            let filters =
              List.map (fun (a, t) -> Cmp (Eq, Field (v, a), t)) keys @ filters
            in
            let gen env =
              Dc_exec.Extent.of_relation ~label:v ~cache:env.icache
                (eval_range env range)
            in
            let bind env t = Some (bind_var env v t schema) in
            add_filters filters
              (Ir.correlated_scan
                 ~label:(lazy (v ^ " IN ..."))
                 ~gen ~bind node)
          end
          else begin
            let rel =
              match pre_rel with
              | Some r -> r
              | None -> eval_range env range
            in
            let schema = Relation.schema rel in
            schemas_so_far := (v, schema) :: !schemas_so_far;
            let src_label =
              match range with
              | Rel n -> n
              | _ -> "<computed>"
            in
            let ext =
              Dc_exec.Extent.of_relation ~label:src_label ~cache:env.icache
                rel
            in
            let bind env t = Some (bind_var env v t schema) in
            let node =
              match keys with
              | [] ->
                Ir.scan
                  ~label:(lazy (v ^ " IN " ^ src_label))
                  ~src:(Ir.Fixed ext) ~bind node
              | _ ->
                let positions =
                  List.map (fun (a, _) -> Schema.attr_index schema a) keys
                in
                let key_terms = List.map snd keys in
                let key env = List.map (eval_term env) key_terms in
                Ir.lookup
                  ~label:
                    (lazy
                      (Fmt.str "%s IN %s on (%s)" v src_label
                         (String.concat ", " (List.map fst keys))))
                  ~src:(Ir.Fixed ext) ~positions ~key ~bind node
            in
            add_filters filters node
          end
        in
        (i + 1, node))
      (0, Ir.seed ())
      (List.combine binders evaled)
    |> snd
  in
  let tuple =
    match target with
    | [] -> (
      match binders with
      | [ (v, _) ] -> fun env -> (SM.find v env.vars).b_tuple
      | _ -> runtime_error "identity branch must have exactly one binder")
    | ts -> fun env -> Tuple.of_list (List.map (eval_term env) ts)
  in
  let label =
    lazy
      (match target with
      | [] -> Fmt.str "[%s]" (String.concat ", " binder_vars)
      | ts ->
        Fmt.str "<%s>"
          (String.concat ", "
             (List.map (fun t -> Fmt.str "%a" Ast.pp_term t) ts)))
  in
  Ir.project ~label ~init:(fun () -> env) ~tuple node

(* Evaluate one branch, folding [emit] over the produced tuples.
   Conjuncts closed by the outer env alone gate the whole branch before
   any range is evaluated or lowered. *)
and eval_branch : 'a. env -> branch -> emit:('a -> Tuple.t -> 'a) -> 'a -> 'a =
  fun env branch ~emit acc ->
  let module Ir = Dc_exec.Ir in
  let outer = SM.fold (fun v _ s -> Vars.S.add v s) env.vars Vars.S.empty in
  let binder_vars = List.map fst branch.binders in
  let pre =
    (* conjuncts needing no binder variable (same rule as the lowering's
       position assignment, which puts them at position -1) *)
    List.filter
      (fun f ->
        let needed = Vars.S.diff (Vars.free_vars_formula f) outer in
        not (List.exists (fun v -> Vars.S.mem v needed) binder_vars))
      (conjuncts branch.where)
  in
  if not (List.for_all (eval_formula env) pre) then acc
  else begin
    if !Guard.Failpoint.armed then
      Guard.Failpoint.hit ~guard:env.guard "eval.branch";
    let pipeline = lower_branch env branch in
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
