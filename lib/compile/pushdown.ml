(* Constraint propagation into constructor definitions (paper §4,
   Cases 1–3), including the recursive case via capture rules.

   The query under consideration is the canonical restricted application

     { EACH r IN Base{c(args)}: pred(r) }

   - If [c] is non-recursive, the application is decompiled and the
     predicate distributed over the resulting branches:
       Case 1 (selector): single expression, single variable — conjoin;
       Case 2 (join): substitute r.f by the target term in position f;
       Case 3 (union): treat each branch separately, provided pred
       satisfies the positivity constraint w.r.t. the application.
   - If [c] is recursive and the restriction binds attributes to constants,
     the paper points at capture rules ([Ullm 84]); we implement the
     general such rule: translate the application to Horn clauses
     ({!Dc_datalog.Translate}) and evaluate with the magic-sets transform,
     which propagates the constants into the fixpoint so that only
     relevant tuples are constructed. *)

open Dc_relation
open Dc_calculus
open Ast

exception Not_applicable of string

let not_applicable fmt = Fmt.kstr (fun s -> raise (Not_applicable s)) fmt

(* The canonical restricted-application shape, if the query has it. *)
let restricted_application = function
  | Comp [ { binders = [ (v, (Construct _ as app)) ]; target = []; where } ] ->
    Some (v, app, where)
  | Construct _ as app -> Some ("r", app, True)
  | _ -> None

(* Restrictions of the shape  v.attr = c  among the top-level conjuncts,
   [c] a constant or a prepared form's parameter (bound at run time);
   returns (bindings, residual conjuncts).  An attribute is bound once:
   a second restriction of it stays residual. *)
let constant_bindings v where =
  let bindings, residual =
    List.fold_left
      (fun (bindings, residual) conj ->
        let bound a c =
          if List.mem_assoc a bindings then (bindings, conj :: residual)
          else ((a, c) :: bindings, residual)
        in
        match conj with
        | Cmp (Eq, Field (v', a), ((Const _ | Param _) as c)) when v' = v ->
          bound a c
        | Cmp (Eq, ((Const _ | Param _) as c), Field (v', a)) when v' = v ->
          bound a c
        | f -> (bindings, f :: residual))
      ([], []) (conjuncts where)
  in
  (List.rev bindings, List.rev residual)

(* Substitute occurrences of [v.<result attr>] in [pred] by per-branch
   replacement terms; [replace attr] yields the term for a result
   attribute.  Quantifier and comprehension ranges are rewritten too; a
   binder that shadows [v] ends the substitution in its scope. *)
let substitute_result v replace pred =
  Morph.map_formula
    {
      Morph.id with
      bind = (fun live x _ _ -> live && not (String.equal x v));
      term =
        (fun live -> function
          | Field (v', a) when live && String.equal v' v -> replace a
          | t -> t);
    }
    true pred

(* Distribute a restriction over the branches of a decompiled application.
   [result] is the constructor's declared result schema (the type of the
   tuple variable [v]); [schema_of_range] resolves binder-range schemas for
   identity branches. *)
let push_into_branches ~result ~schema_of_range v pred branches =
  List.map
    (fun (b : branch) ->
      match b.target, b.binders with
      | [], [ (bv, range) ] ->
        (* Case 1: the branch copies its binder; map result attributes to
           the binder's positionally corresponding attributes *)
        let base_schema = schema_of_range range in
        let replace a =
          let i = Schema.attr_index result a in
          Field (bv, Schema.attr_name base_schema i)
        in
        { b with where = conj b.where (substitute_result v replace pred) }
      | [], _ -> not_applicable "identity branch with several binders"
      | ts, _ ->
        (* Case 2: substitute r.f by the target term in position f *)
        let replace a =
          let i = Schema.attr_index result a in
          match List.nth_opt ts i with
          | Some t -> t
          | None -> not_applicable "no target term for attribute %s" a
        in
        { b with where = conj b.where (substitute_result v replace pred) })
    branches

(* Case 3 side condition: pred must be positive in the application being
   pushed into (else the constructed relation has to be computed fully
   before pred can be evaluated, [JaKo 83]). *)
let positive_in_application pred con =
  List.for_all
    (fun (o : Positivity.occurrence) ->
      match o.occ_target with
      | Positivity.App c when String.equal c con -> o.occ_depth mod 2 = 0
      | _ -> true)
    (Positivity.occurrences_formula pred)

(* Push a restriction into a *non-recursive* application by decompiling
   and distributing (Cases 1–3).  Returns the rewritten query range. *)
let push_nonrecursive ~names ~constructor_of ~schema_of_range v app pred =
  match app with
  | Construct (base, c, args) -> (
    match constructor_of c with
    | None -> not_applicable "unknown constructor %s" c
    | Some (def : Defs.constructor_def) -> (
      if not (positive_in_application pred c) then
        not_applicable "restriction not positive in %s" c;
      match
        Rewrite.instantiate_constructor ~names ~schema_of:schema_of_range def base
          args
      with
      | Comp branches ->
        Comp
          (push_into_branches ~result:def.con_result ~schema_of_range v pred
             branches)
      | _ -> assert false))
  | _ -> not_applicable "not a constructor application"

(* ------------------------------------------------------------------ *)
(* The recursive capture rule *)

(* Build the Horn program, the query atom and the program compiled for
   the query's binding pattern, for evaluating
   {EACH r IN app: r.a1 = c1 AND ...} through magic sets.  [schema] is
   the constructor's result schema.  A parameter binding is a query
   variable named after the parameter: bound in the pattern, its value
   seeds the program at run time. *)
let magic_query ~ctx ~schema app (bindings : (string * term) list) =
  let program, query_pred = Dc_datalog.Translate.of_application ctx app in
  let query_args =
    List.mapi
      (fun i attr ->
        match List.assoc_opt attr bindings with
        | Some (Const c) -> Dc_datalog.Syntax.Const c
        | Some (Param p) -> Dc_datalog.Syntax.Var p
        | Some _ | None -> Dc_datalog.Syntax.Var (Fmt.str "Q%d" i))
      (Schema.attr_names schema)
  in
  let query = Dc_datalog.Syntax.atom query_pred query_args in
  let pattern =
    List.map (fun attr -> List.mem_assoc attr bindings) (Schema.attr_names schema)
  in
  (program, query, Dc_datalog.Magic.compile program query_pred pattern)

let run_magic ~guard ~stats ?trace ~edb ~schema compiled query =
  let answers =
    Dc_datalog.Magic.run ~guard ~stats ?trace compiled edb query
  in
  Dc_datalog.Facts.TS.fold Relation.add_unchecked answers
    (Relation.empty schema)
