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

(* Rename the binder variables of a branch (and all field references to
   them in the branch's own target and predicate). *)
let rec rename_term mapping = function
  | Const _ as t -> t
  | Param _ as t -> t
  | Field (v, a) -> (
    match List.assoc_opt v mapping with
    | Some v' -> Field (v', a)
    | None -> Field (v, a))
  | Binop (op, a, b) -> Binop (op, rename_term mapping a, rename_term mapping b)

let rec rename_formula mapping = function
  | (True | False) as f -> f
  | Cmp (op, a, b) -> Cmp (op, rename_term mapping a, rename_term mapping b)
  | Not f -> Not (rename_formula mapping f)
  | And (a, b) -> And (rename_formula mapping a, rename_formula mapping b)
  | Or (a, b) -> Or (rename_formula mapping a, rename_formula mapping b)
  | Some_in (v, r, f) ->
    (* quantifier shadows v *)
    Some_in (v, rename_range mapping r, rename_formula (List.remove_assoc v mapping) f)
  | All_in (v, r, f) ->
    All_in (v, rename_range mapping r, rename_formula (List.remove_assoc v mapping) f)
  | In_rel (v, r) ->
    let v' = Option.value (List.assoc_opt v mapping) ~default:v in
    In_rel (v', rename_range mapping r)
  | Member (ts, r) ->
    Member (List.map (rename_term mapping) ts, rename_range mapping r)

and rename_range mapping = function
  | Rel _ as r -> r
  | Select (r, s, args) ->
    Select (rename_range mapping r, s, List.map (rename_arg mapping) args)
  | Construct (r, c, args) ->
    Construct (rename_range mapping r, c, List.map (rename_arg mapping) args)
  | Comp branches -> Comp (List.map (rename_branch mapping) branches)

and rename_arg mapping = function
  | Arg_scalar t -> Arg_scalar (rename_term mapping t)
  | Arg_range r -> Arg_range (rename_range mapping r)

and rename_branch mapping (b : branch) =
  (* the branch's own binders shadow the outer mapping *)
  let mapping =
    List.fold_left (fun m (v, _) -> List.remove_assoc v m) mapping b.binders
  in
  {
    binders = List.map (fun (v, r) -> (v, rename_range mapping r)) b.binders;
    target = List.map (rename_term mapping) b.target;
    where = rename_formula mapping b.where;
  }

let standardize_apart names (b : branch) =
  let mapping = List.map (fun (v, _) -> (v, fresh_var names v)) b.binders in
  {
    binders = List.map (fun (v, r) -> (List.assoc v mapping, r)) b.binders;
    target = List.map (rename_term mapping) b.target;
    where = rename_formula mapping b.where;
  }

(* ------------------------------------------------------------------ *)
(* Positional attribute retyping.

   A definition body names attributes after its *formal* types; the actual
   base/argument relations may use different (positionally compatible)
   names.  Before substituting actual ranges for the formal names, field
   references through variables bound over a formal are renamed to the
   actual attribute at the same position.  [info name] yields the
   (formal schema, actual schema) pair for substituted names. *)

let retype_term vmap = function
  | Field (v, a) as t -> (
    match List.assoc_opt v vmap with
    | Some (formal, actual) -> (
      match Dc_relation.Schema.find_attr formal a with
      | Some i -> Field (v, Dc_relation.Schema.attr_name actual i)
      | None -> t)
    | None -> t)
  | t -> t

let rec retype_term_deep vmap = function
  | Binop (op, a, b) ->
    Binop (op, retype_term_deep vmap a, retype_term_deep vmap b)
  | t -> retype_term vmap t

let bindings_of info vmap binders =
  let vmap =
    List.fold_left (fun m (v, _) -> List.remove_assoc v m) vmap binders
  in
  List.fold_left
    (fun m (v, r) ->
      match r with
      | Rel n -> (
        match info n with
        | Some pair -> (v, pair) :: m
        | None -> m)
      | _ -> m)
    vmap binders

let rec retype_formula info vmap = function
  | (True | False) as f -> f
  | Cmp (op, a, b) ->
    Cmp (op, retype_term_deep vmap a, retype_term_deep vmap b)
  | Not f -> Not (retype_formula info vmap f)
  | And (a, b) -> And (retype_formula info vmap a, retype_formula info vmap b)
  | Or (a, b) -> Or (retype_formula info vmap a, retype_formula info vmap b)
  | Some_in (v, r, f) ->
    let vmap' = bindings_of info vmap [ (v, r) ] in
    Some_in (v, retype_range info vmap r, retype_formula info vmap' f)
  | All_in (v, r, f) ->
    let vmap' = bindings_of info vmap [ (v, r) ] in
    All_in (v, retype_range info vmap r, retype_formula info vmap' f)
  | In_rel (v, r) -> In_rel (v, retype_range info vmap r)
  | Member (ts, r) ->
    Member (List.map (retype_term_deep vmap) ts, retype_range info vmap r)

and retype_range info vmap = function
  | Rel _ as r -> r
  | Select (r, s, args) ->
    Select (retype_range info vmap r, s, List.map (retype_arg info vmap) args)
  | Construct (r, c, args) ->
    Construct (retype_range info vmap r, c, List.map (retype_arg info vmap) args)
  | Comp branches -> Comp (List.map (retype_branch info vmap) branches)

and retype_arg info vmap = function
  | Arg_scalar t -> Arg_scalar (retype_term_deep vmap t)
  | Arg_range r -> Arg_range (retype_range info vmap r)

and retype_branch info vmap (b : branch) =
  let vmap' = bindings_of info vmap b.binders in
  {
    binders = List.map (fun (v, r) -> (v, retype_range info vmap r)) b.binders;
    target = List.map (retype_term_deep vmap') b.target;
    where = retype_formula info vmap' b.where;
  }

(* ------------------------------------------------------------------ *)
(* Definition instantiation *)

(* Close a selector definition over an actual base range and arguments:
   Rel[s(args)]  ~>  {EACH v IN base: pred[params := args]}
   (paper §4, Case 1).  Relation-valued arguments substitute ranges for the
   parameter names. *)
let subst_info ~schema_of ~formal ~formal_schema ~range_subst ~param_schemas
    base name =
  if String.equal name formal then Some (formal_schema, schema_of base)
  else
    match List.assoc_opt name range_subst with
    | Some actual -> (
      match List.assoc_opt name param_schemas with
      | Some fs -> Some (fs, schema_of actual)
      | None -> None)
    | None -> None

let split_args who params (args : arg list) =
  List.fold_left2
    (fun (ss, rs, ps) param arg ->
      match param, arg with
      | Defs.Scalar_param (n, _), Arg_scalar t -> ((n, t) :: ss, rs, ps)
      | Defs.Rel_param (n, schema), Arg_range r ->
        (ss, (n, r) :: rs, (n, schema) :: ps)
      | _ -> invalid_arg (who ^ ": argument mismatch"))
    ([], [], []) params args

let instantiate_selector ~names ~schema_of (def : Defs.selector_def) base
    (args : arg list) =
  let scalar_subst, range_subst, param_schemas =
    split_args "instantiate_selector" def.sel_params args
  in
  let info =
    subst_info ~schema_of ~formal:def.sel_formal
      ~formal_schema:def.sel_formal_schema ~range_subst ~param_schemas base
  in
  let substitute_rels =
    Morph.map_formula (function
      | Rel n when n = def.sel_formal -> base
      | Rel n as r -> (
        match List.assoc_opt n range_subst with
        | Some r' -> r'
        | None -> r)
      | r -> r)
  in
  let pred =
    def.sel_pred
    |> retype_formula info
         (match info def.sel_formal with
         | Some pair -> [ (def.sel_var, pair) ]
         | None -> [])
    |> Morph.subst_params_formula scalar_subst
    |> substitute_rels
  in
  let v = fresh_var names def.sel_var in
  let pred = rename_formula [ (def.sel_var, v) ] pred in
  Comp [ { binders = [ (v, base) ]; target = []; where = pred } ]

(* Close a (non-recursive!) constructor definition over an actual base
   range and arguments:  Base{c(args)}  ~>  its body with the formal and
   parameters substituted and binders standardized apart (§4 Cases 2–3:
   join and union).  The caller is responsible for only inlining acyclic
   constructors — inlining a recursive one loops. *)
let instantiate_constructor ~names ~schema_of (def : Defs.constructor_def) base
    (args : arg list) =
  let scalar_subst, range_subst, param_schemas =
    split_args "instantiate_constructor" def.con_params args
  in
  let info =
    subst_info ~schema_of ~formal:def.con_formal
      ~formal_schema:def.con_formal_schema ~range_subst ~param_schemas base
  in
  let substitute =
    Morph.map_branch (function
      | Rel n when n = def.con_formal -> base
      | Rel n as r -> (
        match List.assoc_opt n range_subst with
        | Some r' -> r'
        | None -> r)
      | r -> r)
  in
  let branches =
    List.map
      (fun b ->
        standardize_apart names
          (substitute
             (Morph.subst_params_branch scalar_subst (retype_branch info [] b))))
      def.con_body
  in
  Comp branches

(* ------------------------------------------------------------------ *)
(* N1 flattening: merge single-branch nested comprehension ranges into the
   surrounding branch. *)

(* A nested Comp used as a binder range can be fused when it has a single
   branch whose target is the identity.  The inner binders are hoisted and
   the inner predicate conjoined; the bound variable is renamed to the
   inner binder's variable. *)
let rec flatten_branch (b : branch) : branch =
  let rec expand binders target where = function
    | [] -> { binders = List.rev binders; target; where }
    | (v, range) :: rest -> (
      match flatten_range range with
      | Comp [ inner ] when inner.target = [] -> (
        match inner.binders with
        | [ (iv, ir) ] ->
          (* one inner binder: rename it to v, hoist its predicate *)
          let pred = rename_formula [ (iv, v) ] inner.where in
          expand ((v, ir) :: binders) target (conj where pred) rest
        | _ -> expand ((v, Comp [ inner ]) :: binders) target where rest)
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
let rec flatten_formula = function
  | (True | False | Cmp _) as f -> f
  | Not f -> Not (flatten_formula f)
  | And (a, b) -> And (flatten_formula a, flatten_formula b)
  | Or (a, b) -> Or (flatten_formula a, flatten_formula b)
  | Some_in (v, r, f) -> (
    match flatten_range r with
    | Comp [ { binders = [ (iv, ir) ]; target = []; where } ] ->
      (* N2: SOME v IN {EACH iv IN ir: p} (f) => SOME v IN ir (p AND f) *)
      Some_in (v, ir, conj (rename_formula [ (iv, v) ] where) (flatten_formula f))
    | r -> Some_in (v, r, flatten_formula f))
  | All_in (v, r, f) -> (
    match flatten_range r with
    | Comp [ { binders = [ (iv, ir) ]; target = []; where } ] ->
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
  let renamed old_schema new_schema =
    if
      Dc_relation.Schema.attr_names old_schema
      = Dc_relation.Schema.attr_names new_schema
    then None
    else Some (old_schema, new_schema)
  in
  let rec dec_range r =
    match r with
    | Rel _ -> r
    | Select (base, s, args) -> (
      let base = dec_range base in
      let args = List.map dec_arg args in
      match selector_of s with
      | Some def ->
        flatten_range (dec_range (instantiate_selector ~names ~schema_of def base args))
      | None -> Select (base, s, args))
    | Construct (base, c, args) -> (
      let base = dec_range base in
      let args = List.map dec_arg args in
      match constructor_of c with
      | Some def when not (is_recursive c) ->
        flatten_range
          (dec_range (instantiate_constructor ~names ~schema_of def base args))
      | _ -> Construct (base, c, args))
    | Comp branches -> flatten_range (Comp (List.map dec_branch branches))

  and dec_arg = function
    | Arg_scalar t -> Arg_scalar t
    | Arg_range r -> Arg_range (dec_range r)

  and dec_binding (v, r) =
    let old_schema = schema_of r in
    let r' = dec_range r in
    let mapping =
      Option.map (fun pair -> (v, pair)) (renamed old_schema (schema_of r'))
    in
    ((v, r'), mapping)

  and dec_branch (b : branch) =
    let binders, mappings =
      List.fold_left
        (fun (bs, ms) binding ->
          let binding', mapping = dec_binding binding in
          (bs @ [ binding' ], ms @ Option.to_list mapping))
        ([], []) b.binders
    in
    let where = dec_formula b.where in
    if mappings = [] then { binders; target = b.target; where }
    else
      {
        binders;
        target = List.map (retype_term_deep mappings) b.target;
        where = retype_formula (fun _ -> None) mappings where;
      }

  and dec_formula = function
    | (True | False | Cmp _) as f -> f
    | Not f -> Not (dec_formula f)
    | And (a, b) -> And (dec_formula a, dec_formula b)
    | Or (a, b) -> Or (dec_formula a, dec_formula b)
    | Some_in (v, r, f) -> dec_quant (fun (v, r, f) -> Some_in (v, r, f)) v r f
    | All_in (v, r, f) -> dec_quant (fun (v, r, f) -> All_in (v, r, f)) v r f
    | In_rel (v, r) -> In_rel (v, dec_range r)
    | Member (ts, r) -> Member (ts, dec_range r)

  and dec_quant mk v r f =
    let (v, r'), mapping = dec_binding (v, r) in
    let f = dec_formula f in
    let f =
      match mapping with
      | Some m -> retype_formula (fun _ -> None) [ m ] f
      | None -> f
    in
    mk (v, r', f)
  in
  dec_range query
