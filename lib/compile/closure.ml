(* The closure recogniser (see closure.mli): a syntactic proof that a
   constructor's least fixpoint is the transitive closure of its formal
   base, whatever mix of base∘self, self∘base and self∘self compositions
   its body lists, so the planner may run the closure operator in place
   of the body's fixpoint. *)

open Dc_relation
open Dc_calculus
open Ast

type verdict = Closure | Declined of string | Not_candidate

exception Decline of string

let decline fmt = Fmt.kstr (fun s -> raise (Decline s)) fmt

(* The application of [def] to its own formal, parameters passed
   through: the only recursive reference a closure makes. *)
let self_app (def : Defs.constructor_def) =
  Construct
    ( Rel def.con_formal,
      def.con_name,
      List.map
        (function
          | Defs.Scalar_param (n, _) -> Arg_scalar (Param n)
          | Defs.Rel_param (n, _) -> Arg_range (Rel n))
        def.con_params )

type side = Base | Self

let check (def : Defs.constructor_def) =
  if def.con_agg <> None then decline "aggregate head";
  if not (Schema.key_is_whole_tuple def.con_result) then
    decline "the result key is not the whole tuple";
  if Schema.arity def.con_result <> 2 || Schema.arity def.con_formal_schema <> 2
  then decline "the result or the formal is not binary";
  let self = self_app def in
  let side = function
    | Rel n when String.equal n def.con_formal -> Some Base
    | r when r = self -> Some Self
    | _ -> None
  in
  let column s i =
    Schema.attr_name
      (match s with Base -> def.con_formal_schema | Self -> def.con_result)
      i
  in
  let is_exit (b : branch) =
    match (b.binders, b.target, b.where) with
    | [ (v, r) ], target, True -> (
      side r = Some Base
      &&
      match target with
      | [] -> true
      | [ Field (v0, a); Field (v1, b) ] ->
        v0 = v && v1 = v && a = column Base 0 && b = column Base 1
      | _ -> false)
    | _ -> false
  in
  let composition k (b : branch) =
    match b.binders with
    | [ (x, rx); (y, ry) ] -> (
      if x = y then decline "branch %d binds %s twice" k x;
      let side_of r =
        match side r with
        | Some s -> s
        | None ->
          decline "branch %d ranges over %a, not %s or %a" k pp_range r
            def.con_formal pp_range self
      in
      let sides = [ (x, side_of rx); (y, side_of ry) ] in
      if List.for_all (fun (_, s) -> s = Base) sides then
        decline "branch %d composes the base with itself" k;
      let l, r =
        match b.target with
        | [ Field (l, a); Field (r, c) ]
          when l <> r && List.mem_assoc l sides && List.mem_assoc r sides
               && a = column (List.assoc l sides) 0
               && c = column (List.assoc r sides) 1 ->
          (l, r)
        | _ -> decline "branch %d's target is not <left.first, right.second>" k
      in
      let sl = List.assoc l sides and sr = List.assoc r sides in
      let joins_composed = function
        | Cmp (Eq, Field (u, a), Field (w, c)) ->
          (u = l && a = column sl 1 && w = r && c = column sr 0)
          || (u = r && a = column sr 0 && w = l && c = column sl 1)
        | _ -> false
      in
      match conjuncts b.where with
      | [ j ] when joins_composed j -> ()
      | [ _ ] -> decline "branch %d does not join on the composed columns" k
      | [] -> decline "branch %d has no join" k
      | _ -> decline "branch %d has a conjunct besides the join" k)
    | _ -> decline "branch %d is neither the formal base nor a composition" k
  in
  let exits, steps =
    List.partition
      (fun (_, b) -> is_exit b)
      (List.mapi (fun k b -> (k + 1, b)) def.con_body)
  in
  (match exits with
  | [ _ ] -> ()
  | [] ->
    decline "no branch is the formal base EACH e IN %s: TRUE" def.con_formal
  | _ -> decline "more than one exit branch");
  if steps = [] then decline "no composition branch";
  List.iter (fun (k, b) -> composition k b) steps

let recognise (def : Defs.constructor_def) =
  if List.exists (fun (b : branch) -> List.length b.binders > 2) def.con_body
  then Not_candidate
  else match check def with () -> Closure | exception Decline why -> Declined why
