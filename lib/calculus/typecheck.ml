(* Static type checking of calculus expressions against relation schemas.

   Plays the role of the DBPL compiler's type-checking level (paper §4):
   every query, selector body and constructor body is checked before
   evaluation, so the evaluator can assume well-formed input.  The checker
   infers a schema for every range expression, including nested
   comprehensions, selector applications (type-preserving) and constructor
   applications (result type taken from the definition). *)

open Dc_relation
open Ast

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type env = {
  schema_of_rel : string -> Schema.t option;
  selector_of : string -> Defs.selector_def option;
  constructor_of : string -> Defs.constructor_def option;
  scalar_params : (string * Value.ty) list;
  views : Ast.range list;
}

let env ?(selectors = []) ?(constructors = []) ?(scalar_params = [])
    ?(views = []) rels =
  {
    schema_of_rel = (fun n -> List.assoc_opt n rels);
    selector_of =
      (fun n ->
        List.find_opt (fun (s : Defs.selector_def) -> s.sel_name = n) selectors);
    constructor_of =
      (fun n ->
        List.find_opt
          (fun (c : Defs.constructor_def) -> c.con_name = n)
          constructors);
    scalar_params;
    views;
  }

let with_rel env name schema =
  {
    env with
    schema_of_rel =
      (fun n -> if String.equal n name then Some schema else env.schema_of_rel n);
  }

let with_scalar_params env params =
  { env with scalar_params = params @ env.scalar_params }

(* Tuple-variable context: variable -> schema of its range. *)
type ctx = (var * Schema.t) list

let lookup_var ctx v =
  match List.assoc_opt v ctx with
  | Some s -> s
  | None -> error "unbound tuple variable %s" v

let comparable op ty =
  match op, (ty : Value.ty) with
  | (Eq | Ne), _ -> true
  | (Lt | Le | Gt | Ge), (Value.TInt | Value.TFloat | Value.TStr) -> true
  | (Lt | Le | Gt | Ge), Value.TBool -> false

let rec infer_term env ctx = function
  | Const v -> Value.type_of v
  | Field (v, a) ->
    let schema = lookup_var ctx v in
    (match Schema.find_attr schema a with
    | Some i -> Schema.attr_ty schema i
    | None ->
      error "tuple variable %s has no attribute %s (schema %a)" v a Schema.pp
        schema)
  | Param p -> (
    match List.assoc_opt p env.scalar_params with
    | Some ty -> ty
    | None -> error "unknown scalar parameter %s" p)
  | Binop (op, a, b) -> (
    let ta = infer_term env ctx a and tb = infer_term env ctx b in
    if ta <> tb then
      error "operands of %a have different types %s and %s" pp_binop op
        (Value.type_name ta) (Value.type_name tb);
    match op, ta with
    | Add, (Value.TInt | Value.TFloat | Value.TStr) -> ta
    | (Sub | Mul), (Value.TInt | Value.TFloat) -> ta
    | _, _ ->
      error "operator %a not defined at type %s" pp_binop op
        (Value.type_name ta))

(* The schema a branch's target terms build.  A [Field] term keeps its
   attribute name, any other term is named [c<i>] by its position, and a
   name already taken becomes [<name>_<i>]. *)
let target_schema ty_of ts =
  let used = Hashtbl.create 8 in
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

let rec check_formula env ctx = function
  | True | False -> ()
  | Cmp (op, a, b) ->
    let ta = infer_term env ctx a and tb = infer_term env ctx b in
    if ta <> tb then
      error "comparison %a between %s and %s" pp_cmpop op (Value.type_name ta)
        (Value.type_name tb);
    if not (comparable op ta) then
      error "ordering comparison on %s" (Value.type_name ta)
  | Not f -> check_formula env ctx f
  | And (a, b) | Or (a, b) ->
    check_formula env ctx a;
    check_formula env ctx b
  | Some_in (v, r, f) | All_in (v, r, f) ->
    let schema = infer_range env ctx r in
    check_formula env ((v, schema) :: ctx) f
  | In_rel (v, r) ->
    let sv = lookup_var ctx v in
    let sr = infer_range env ctx r in
    if not (Schema.compatible sv sr) then
      error "%s IN %a: incompatible element type" v pp_range r
  | Member (ts, r) ->
    let schema = infer_range env ctx r in
    if List.length ts <> Schema.arity schema then
      error "<...> IN %a: expected %d components, got %d" pp_range r
        (Schema.arity schema) (List.length ts);
    List.iteri
      (fun i t ->
        let ty = infer_term env ctx t in
        if ty <> Schema.attr_ty schema i then
          error "component %d of membership test has type %s, expected %s" i
            (Value.type_name ty)
            (Value.type_name (Schema.attr_ty schema i)))
      ts

and infer_range env ctx = function
  | Rel n -> (
    match env.schema_of_rel n with
    | Some s -> s
    | None -> error "unknown relation %s" n)
  | Select (r, s, args) -> (
    let base = infer_range env ctx r in
    match env.selector_of s with
    | None -> error "unknown selector %s" s
    | Some def ->
      if not (Schema.compatible base def.sel_formal_schema) then
        error "selector %s applied to %a whose type does not match the formal"
          s pp_range r;
      check_args env ctx s def.sel_params args;
      base (* a selector names a sub-relation: type-preserving *))
  | Construct (r, c, args) -> (
    let base = infer_range env ctx r in
    match env.constructor_of c with
    | None -> error "unknown constructor %s" c
    | Some def ->
      if not (Schema.compatible base def.con_formal_schema) then
        error
          "constructor %s applied to %a whose type does not match the formal"
          c pp_range r;
      check_args env ctx c def.con_params args;
      def.con_result)
  | Comp branches -> infer_branches env ctx branches

and check_args env ctx who params args =
  if List.length params <> List.length args then
    error "%s expects %d argument(s), got %d" who (List.length params)
      (List.length args);
  List.iter2
    (fun param arg ->
      match param, arg with
      | Defs.Scalar_param (n, ty), Arg_scalar t ->
        let ta = infer_term env ctx t in
        if ta <> ty then
          error "%s: parameter %s expects %s, got %s" who n
            (Value.type_name ty) (Value.type_name ta)
      | Defs.Rel_param (n, schema), Arg_range r ->
        let sr = infer_range env ctx r in
        if not (Schema.compatible schema sr) then
          error "%s: relation parameter %s has incompatible type" who n
      | Defs.Scalar_param (n, _), Arg_range _ ->
        error "%s: parameter %s expects a scalar, got a relation" who n
      | Defs.Rel_param (n, _), Arg_scalar _ ->
        error "%s: parameter %s expects a relation, got a scalar" who n)
    params args

(* The schema of a branch's output: see {!target_schema}.  Every branch
   of a comprehension must be positionally type-compatible with the
   first. *)
and infer_branch env ctx ({ binders; target; where } as b) =
  if binders = [] then error "branch with no EACH binder: %a" pp_branch b;
  let ctx' =
    List.fold_left
      (fun ctx' (v, r) ->
        if List.mem_assoc v ctx' then error "duplicate binder %s" v;
        (v, infer_range env ctx' r) :: ctx')
      ctx binders
  in
  check_formula env ctx' where;
  match target with
  | [] -> (
    match binders with
    | [ (_, r) ] -> infer_range env ctx r
    | _ -> error "identity branch must have exactly one binder: %a" pp_branch b)
  | ts -> target_schema (infer_term env ctx') ts

and infer_branches env ctx = function
  | [] -> error "empty comprehension"
  | first :: rest ->
    let schema = infer_branch env ctx first in
    List.iter
      (fun b ->
        let s = infer_branch env ctx b in
        if not (Schema.compatible schema s) then
          error "branch %a has type %a, incompatible with %a" pp_branch b
            Schema.pp s Schema.pp schema)
      rest;
    schema

(* ------------------------------------------------------------------ *)
(* Definition-level checks *)

let def_params_env env params =
  List.fold_left
    (fun env p ->
      match p with
      | Defs.Scalar_param (n, ty) -> with_scalar_params env [ (n, ty) ]
      | Defs.Rel_param (n, schema) -> with_rel env n schema)
    env params

let check_selector_def env (def : Defs.selector_def) =
  let env = def_params_env env def.sel_params in
  let env = with_rel env def.sel_formal def.sel_formal_schema in
  check_formula env
    [ (def.sel_var, def.sel_formal_schema) ]
    def.sel_pred

(* The schema an aggregated constructor's results take: the raw emissions
   of the branches are grouped on [spec.group] and folded on [spec.value]
   (remaining raw attributes are discriminators that make contributions
   distinct and then vanish). *)
let aggregated_schema ~who (spec : Dc_agg.Agg.spec) raw =
  let arity = Schema.arity raw in
  let check_pos i =
    if i < 0 || i >= arity then
      error "constructor %s: aggregate position %d outside the raw tuple of %d attributes"
        who i arity
  in
  List.iter check_pos spec.group;
  check_pos spec.value;
  let vty = Schema.attr_ty raw spec.value in
  if not (Dc_agg.Agg.value_admissible spec.op vty) then
    error "constructor %s: %s cannot aggregate values of type %s" who
      (Dc_agg.Agg.op_name spec.op) (Value.type_name vty);
  Schema.make
    (List.map (fun i -> (Schema.attr_name raw i, Schema.attr_ty raw i)) spec.group
    @ [ (Schema.attr_name raw spec.value, Dc_agg.Agg.result_ty spec.op vty) ])

let body_env env (def : Defs.constructor_def) =
  with_rel (def_params_env env def.con_params) def.con_formal def.con_formal_schema

let check_constructor_def env (def : Defs.constructor_def) =
  let env = body_env env def in
  let raw = infer_branches env [] def.con_body in
  match def.con_agg with
  | None ->
    if not (Schema.compatible raw def.con_result) then
      error "constructor %s: body has type %a but result type is %a"
        def.con_name Schema.pp raw Schema.pp def.con_result
  | Some spec ->
    let result = aggregated_schema ~who:def.con_name spec raw in
    if not (Schema.compatible result def.con_result) then
      error
        "constructor %s: aggregated body has type %a but result type is %a"
        def.con_name Schema.pp result Schema.pp def.con_result

let check_query env range = ignore (infer_range env [] range)
