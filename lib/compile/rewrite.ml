(* Range-nesting rewrites (paper §4, rules N1–N3 of [JaKo 83]) and
   definition inlining ("decompilation").

   N1:  {EACH r IN R: p1 AND p2}  <=>  {EACH r IN {EACH r' IN R: p1}: p2}
   N2:  SOME r IN R (p1 AND p2)   <=>  SOME r IN {EACH r' IN R: p1} (p2)
   N3:  ALL r IN R (NOT p1 OR p2) <=>  ALL r IN {EACH r' IN R: p1} (p2)

   The optimizer mostly uses the <== direction ("understand and optimize a
   query in terms of base relations"): selector applications and
   non-recursive constructor applications are replaced by their definitions
   (Cases 1–3 of §4), then single-branch nested comprehensions are
   flattened into the surrounding predicate with N1–N3. *)

open Dc_calculus
open Ast

(* ------------------------------------------------------------------ *)
(* Fresh-variable renaming, for standardizing inlined bodies apart.  A
   name supply belongs to one rewrite (one planning), so the names it
   gives — and the plan labels and guard reports that show them — depend
   only on the query rewritten, not on what was planned before. *)

type names = int ref

let names () = ref 0

let fresh_var names v =
  incr names;
  Fmt.str "%s~%d" v !names

(* Rename free tuple variables: [mapping] pairs old and new names, and a
   binder of an old name shadows its entry. *)
let renaming =
  let rename m v = Option.value (List.assoc_opt v m) ~default:v in
  {
    Morph.id with
    bind = (fun m v _ _ -> List.remove_assoc v m);
    var = rename;
    term =
      (fun m -> function
        | Field (v, a) -> Field (rename m v, a)
        | t -> t);
  }

let rename_formula mapping f = Morph.map_formula renaming mapping f

(* Fresh names for the binders of a branch, and for the references to them
   in later binder ranges, the target and the predicate. *)
let standardize_apart names (b : branch) =
  let fresh = List.map (fun (v, _) -> (v, fresh_var names v)) b.binders in
  let rec go seen = function
    | [] -> []
    | (v, r) :: rest ->
      let v' = List.assoc v fresh in
      (v', Morph.map_range renaming seen r) :: go ((v, v') :: seen) rest
  in
  {
    binders = go [] b.binders;
    target = List.map (Morph.map_term renaming fresh) b.target;
    where = rename_formula fresh b.where;
  }

(* ------------------------------------------------------------------ *)
(* Positional attribute retyping.

   A definition body names attributes after its *formal* types; the actual
   base/argument relations may use different (positionally compatible)
   names.  A retyping environment maps a tuple variable to the (old, new)
   schema pair of its range; field references through it are renamed to
   the new attribute at the same position. *)

let retype_term vmap = function
  | Field (v, a) as t -> (
    match List.assoc_opt v vmap with
    | Some (formal, actual) -> (
      match Dc_relation.Schema.find_attr formal a with
      | Some i -> Field (v, Dc_relation.Schema.attr_name actual i)
      | None -> t)
    | None -> t)
  | t -> t

(* A map that retypes field references: [schemas written rewritten]
   gives the schema pair of a binder's range, if it changes. *)
let retyping schemas =
  {
    Morph.id with
    bind =
      (fun vmap v r r' ->
        let vmap = List.remove_assoc v vmap in
        match schemas r r' with
        | Some pair -> (v, pair) :: vmap
        | None -> vmap);
    term = retype_term;
  }

(* ------------------------------------------------------------------ *)
(* Definition instantiation *)

(* The map closing a definition body over an actual base range and
   arguments: variables bound over the formal or a relation parameter
   are retyped to the actual's attributes ([info name] yields the
   (formal, actual) schema pair of a substituted name), scalar
   parameters are replaced by the actual terms and relation names by the
   actual ranges. *)
let closing ~schema_of ~formal ~formal_schema ~base args params =
  let scalars, ranges, schemas =
    List.fold_left2
      (fun (ss, rs, ps) param arg ->
        match param, arg with
        | Defs.Scalar_param (n, _), Arg_scalar t -> ((n, t) :: ss, rs, ps)
        | Defs.Rel_param (n, schema), Arg_range r ->
          (ss, (n, r) :: rs, (n, schema) :: ps)
        | _ -> invalid_arg "Rewrite: argument mismatch")
      ([], [], []) params args
  in
  let info name =
    if String.equal name formal then Some (formal_schema, schema_of base)
    else
      match List.assoc_opt name ranges, List.assoc_opt name schemas with
      | Some actual, Some fs -> Some (fs, schema_of actual)
      | _ -> None
  in
  let subst = Morph.subst_params scalars in
  {
    (retyping (fun r _ ->
         match r with
         | Rel n -> info n
         | _ -> None))
    with
    term = (fun vmap t -> subst.term vmap (retype_term vmap t));
    range =
      (fun _ -> function
        | Rel n when String.equal n formal -> base
        | Rel n as r -> Option.value (List.assoc_opt n ranges) ~default:r
        | r -> r);
  }

(* Rel[s(args)]  ~>  {EACH v IN base: pred[params := args]}
   (paper §4, Case 1): the body is the one-binder branch
   [EACH v IN Rel: pred], closed like a constructor's. *)
let instantiate_selector ~names ~schema_of (def : Defs.selector_def) base
    (args : arg list) =
  let close =
    closing ~schema_of ~formal:def.sel_formal
      ~formal_schema:def.sel_formal_schema ~base args def.sel_params
  in
  Comp
    [
      standardize_apart names
        (Morph.map_branch close []
           (branch [ (def.sel_var, Rel def.sel_formal) ] ~where:def.sel_pred));
    ]

(* Close a (non-recursive!) constructor definition over an actual base
   range and arguments:  Base{c(args)}  ~>  its body with the formal and
   parameters substituted and binders standardized apart (§4 Cases 2–3:
   join and union).  The caller is responsible for only inlining acyclic
   constructors — inlining a recursive one loops. *)
let instantiate_constructor ~names ~schema_of (def : Defs.constructor_def) base
    (args : arg list) =
  let close =
    closing ~schema_of ~formal:def.con_formal
      ~formal_schema:def.con_formal_schema ~base args def.con_params
  in
  Comp
    (List.map
       (fun b -> standardize_apart names (Morph.map_branch close [] b))
       def.con_body)

(* ------------------------------------------------------------------ *)
(* Range nesting N1–N3: fuse a single-branch identity comprehension used
   as a binder or quantifier range into the surrounding predicate,
   everywhere in a range — binder ranges, WHERE clauses and the ranges of
   the quantifiers inside them. *)

(* Renaming [iv] to [v] in [f] keeps its meaning when [v] is not free in
   [f] and no binder of [v] inside [f] encloses a free [iv]. *)
let renamable iv v f =
  iv = v
  ||
  let clash bound x =
    (x = v && not (Morph.S.mem v bound))
    || (x = iv && (not (Morph.S.mem iv bound)) && Morph.S.mem v bound)
  in
  not
    (Morph.fold_formula
       {
         Morph.skip with
         term =
           (fun bound acc -> function
             | Field (x, _) -> acc || clash bound x
             | _ -> acc);
         var = (fun bound acc x -> acc || clash bound x);
       }
       false f)

(* N1: a binder [v IN {EACH iv IN ir: p}] becomes [v IN ir] with [p]
   (renamed to [v]) hoisted into the WHERE clause — unless a later
   binder of the branch would capture a variable [p] reads. *)
let rec flatten_branch (b : branch) : branch =
  let rec expand binders target where = function
    | [] -> { binders = List.rev binders; target; where = flatten_formula where }
    | (v, range) :: rest -> (
      match flatten_range range with
      | Comp [ { binders = [ (iv, ir) ]; target = []; where = p } ]
        when renamable iv v p
             &&
             let free = Vars.free_vars_formula p in
             not (List.exists (fun (w, _) -> Morph.S.mem w free) rest) ->
        expand ((v, ir) :: binders) target
          (conj where (rename_formula [ (iv, v) ] p))
          rest
      | range -> expand ((v, range) :: binders) target where rest)
  in
  expand [] b.target b.where b.binders

and flatten_range = function
  | Rel _ as r -> r
  | Select (r, s, args) -> Select (flatten_range r, s, args)
  | Construct (r, c, args) -> Construct (flatten_range r, c, args)
  | Comp branches -> (
    (* fuse singleton identity comps upward: {EACH r IN {..}: TRUE} *)
    let branches = List.map flatten_branch branches in
    match branches with
    | [ { binders = [ (_, (Comp _ as inner)) ]; target = []; where = True } ] ->
      inner
    | _ -> Comp branches)

(* N2/N3: the same fusion inside quantifier ranges. *)
and flatten_formula = function
  | (True | False | Cmp _) as f -> f
  | Not f -> Not (flatten_formula f)
  | And (a, b) -> And (flatten_formula a, flatten_formula b)
  | Or (a, b) -> Or (flatten_formula a, flatten_formula b)
  | Some_in (v, r, f) -> (
    match flatten_range r with
    | Comp [ { binders = [ (iv, ir) ]; target = []; where } ]
      when renamable iv v where ->
      (* N2: SOME v IN {EACH iv IN ir: p} (f) => SOME v IN ir (p AND f) *)
      Some_in (v, ir, conj (rename_formula [ (iv, v) ] where) (flatten_formula f))
    | r -> Some_in (v, r, flatten_formula f))
  | All_in (v, r, f) -> (
    match flatten_range r with
    | Comp [ { binders = [ (iv, ir) ]; target = []; where } ]
      when renamable iv v where ->
      (* N3: ALL v IN {EACH iv IN ir: p} (f) => ALL v IN ir (NOT p OR f) *)
      All_in
        (v, ir, disj (neg (rename_formula [ (iv, v) ] where)) (flatten_formula f))
    | r -> All_in (v, r, flatten_formula f))
  | In_rel (v, r) -> In_rel (v, flatten_range r)
  | Member (ts, r) -> Member (ts, flatten_range r)

(* ------------------------------------------------------------------ *)
(* Whole-query decompilation: inline every selector application and every
   acyclic constructor application, then flatten.  [is_recursive] guards
   constructor inlining. *)

let decompile ~names ~schema_of ~selector_of ~constructor_of ~is_recursive
    (query : range) =
  (* The inlined comprehension's inferred attribute names come from its
     target terms, not from the constructor's declared result type, so
     every consumer of a replaced range retypes its field references
     positionally (old schema -> new schema). *)
  let renamed r r' =
    let old_schema = schema_of r and new_schema = schema_of r' in
    if
      Dc_relation.Schema.attr_names old_schema
      = Dc_relation.Schema.attr_names new_schema
    then None
    else Some (old_schema, new_schema)
  in
  let rec dec =
    {
      (retyping renamed) with
      range =
        (fun _ r ->
          match r with
          | Select (base, s, args) -> (
            match selector_of s with
            | Some def ->
              flatten_range
                (dec_range (instantiate_selector ~names ~schema_of def base args))
            | None -> r)
          | Construct (base, c, args) -> (
            match constructor_of c with
            | Some def when not (is_recursive c) ->
              flatten_range
                (dec_range
                   (instantiate_constructor ~names ~schema_of def base args))
            | _ -> r)
          | Comp _ -> flatten_range r
          | Rel _ -> r);
    }
  and dec_range r = Morph.map_range dec [] r in
  dec_range query
