(* One fold and one map over the calculus AST, both aware of binders.

   Every structural walker of the calculus is an instance of one of the
   two: free variables and constructor applications ({!Vars}), the §3.3
   occurrence count ({!Positivity}) and polarity ({!Normalize}),
   parameter substitution, renaming, retyping, decompilation and
   restriction pushdown ([Dc_compile]).

   Scoping is the evaluator's.  [SOME v IN r (p)] and [ALL v IN r (p)]
   bind [v] in [p], not in [r].  A branch's binders are sequential: a
   binder's range sees the binders before it, and the target and WHERE
   clause see them all. *)

open Ast

module S = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Fold: pre-order, every range with its NOT/ALL-range depth, every term
   node with the tuple variables bound around it. *)

type 'a fold = {
  term : S.t -> 'a -> term -> 'a;
  var : S.t -> 'a -> var -> 'a;
  range : int -> 'a -> range -> 'a;
}

let skip =
  {
    term = (fun _ acc _ -> acc);
    var = (fun _ acc _ -> acc);
    range = (fun _ acc _ -> acc);
  }

let rec term_f fo bound acc t =
  let acc = fo.term bound acc t in
  match t with
  | Binop (_, a, b) -> term_f fo bound (term_f fo bound acc a) b
  | Const _ | Field _ | Param _ -> acc

let rec terms_f fo bound acc = function
  | [] -> acc
  | t :: ts -> terms_f fo bound (term_f fo bound acc t) ts

let rec formula_f fo depth bound acc = function
  | True | False -> acc
  | Cmp (_, a, b) -> term_f fo bound (term_f fo bound acc a) b
  | Not f -> formula_f fo (depth + 1) bound acc f
  | And (a, b) | Or (a, b) ->
    formula_f fo depth bound (formula_f fo depth bound acc a) b
  | Some_in (v, r, f) ->
    formula_f fo depth (S.add v bound) (range_f fo depth bound acc r) f
  | All_in (v, r, f) ->
    (* the range is under the ALL; the body is not (§3.3) *)
    formula_f fo depth (S.add v bound) (range_f fo (depth + 1) bound acc r) f
  | In_rel (v, r) -> range_f fo depth bound (fo.var bound acc v) r
  | Member (ts, r) -> range_f fo depth bound (terms_f fo bound acc ts) r

and range_f fo depth bound acc r =
  let acc = fo.range depth acc r in
  match r with
  | Rel _ -> acc
  | Select (base, _, args) | Construct (base, _, args) ->
    args_f fo depth bound (range_f fo depth bound acc base) args
  | Comp bs -> branches_f fo depth bound acc bs

and args_f fo depth bound acc = function
  | [] -> acc
  | Arg_scalar t :: rest -> args_f fo depth bound (term_f fo bound acc t) rest
  | Arg_range r :: rest -> args_f fo depth bound (range_f fo depth bound acc r) rest

and branches_f fo depth bound acc = function
  | [] -> acc
  | b :: rest -> branches_f fo depth bound (branch_f fo depth bound acc b) rest

and branch_f fo depth bound acc b = binders_f fo depth b bound acc b.binders

and binders_f fo depth b bound acc = function
  | [] -> formula_f fo depth bound (terms_f fo bound acc b.target) b.where
  | (v, r) :: rest ->
    binders_f fo depth b (S.add v bound) (range_f fo depth bound acc r) rest

let fold_term fo acc t = term_f fo S.empty acc t
let fold_formula fo acc f = formula_f fo 0 S.empty acc f
let fold_range fo acc r = range_f fo 0 S.empty acc r
let fold_branch fo acc b = branch_f fo 0 S.empty acc b

(* ------------------------------------------------------------------ *)
(* Map: bottom-up, threading the caller's environment through binders. *)

type 'env map = {
  bind : 'env -> var -> range -> range -> 'env;
  var : 'env -> var -> var;
  term : 'env -> term -> term;
  range : 'env -> range -> range;
}

let id =
  {
    bind = (fun env _ _ _ -> env);
    var = (fun _ v -> v);
    term = (fun _ t -> t);
    range = (fun _ r -> r);
  }

let rec map_term m env t =
  match t with
  | Binop (op, a, b) -> m.term env (Binop (op, map_term m env a, map_term m env b))
  | Const _ | Field _ | Param _ -> m.term env t

let rec map_formula m env = function
  | (True | False) as f -> f
  | Cmp (op, a, b) -> Cmp (op, map_term m env a, map_term m env b)
  | Not f -> Not (map_formula m env f)
  | And (a, b) -> And (map_formula m env a, map_formula m env b)
  | Or (a, b) -> Or (map_formula m env a, map_formula m env b)
  | Some_in (v, r, f) ->
    let r' = map_range m env r in
    Some_in (v, r', map_formula m (m.bind env v r r') f)
  | All_in (v, r, f) ->
    let r' = map_range m env r in
    All_in (v, r', map_formula m (m.bind env v r r') f)
  | In_rel (v, r) -> In_rel (m.var env v, map_range m env r)
  | Member (ts, r) -> Member (List.map (map_term m env) ts, map_range m env r)

and map_range m env r =
  m.range env
    (match r with
    | Rel _ -> r
    | Select (base, s, args) ->
      Select (map_range m env base, s, List.map (map_arg m env) args)
    | Construct (base, c, args) ->
      Construct (map_range m env base, c, List.map (map_arg m env) args)
    | Comp bs -> Comp (List.map (map_branch m env) bs))

and map_arg m env = function
  | Arg_scalar t -> Arg_scalar (map_term m env t)
  | Arg_range r -> Arg_range (map_range m env r)

and map_branch m env { binders; target; where } =
  let rec go env acc = function
    | [] ->
      {
        binders = List.rev acc;
        target = List.map (map_term m env) target;
        where = map_formula m env where;
      }
    | (v, r) :: rest ->
      let r' = map_range m env r in
      go (m.bind env v r r') ((v, r') :: acc) rest
  in
  go env [] binders

(* Substitute terms for scalar parameters (closing a definition over its
   actual scalar arguments, §4). *)
let subst_params bindings =
  {
    id with
    term =
      (fun _ -> function
        | Param p as t -> Option.value (List.assoc_opt p bindings) ~default:t
        | t -> t);
  }
