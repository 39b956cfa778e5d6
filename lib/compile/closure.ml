(* The regular-system recogniser (see closure.mli): a syntactic proof
   that the application system a constructor's application reaches is a
   regular language over base relations, so the planner may run the
   product traversal ({!Dc_exec.Reach}) in place of the system's
   fixpoint.

   The system is unfolded symbolically, as [Fixpoint]'s application keys
   unfold it over values: each application met in a body is rewritten in
   the root's terms, the callee's formal and parameters replaced by the
   ranges and terms the caller passes, and two applications equal in
   those terms are one state. *)

open Dc_relation
open Dc_calculus
open Ast

type system = { automaton : Dc_exec.Reach.automaton; labels : range array }

type verdict = Regular of system | Declined of string

exception Decline of string

let decline fmt = Fmt.kstr (fun s -> raise (Decline s)) fmt

(* More states than any hand-written system has: the unfolding stops
   there rather than run on. *)
let max_states = 64

(* A range with no application or comprehension in it. *)
let rec is_base = function
  | Rel _ -> true
  | Select (r, _, args) ->
    is_base r
    && List.for_all (function Arg_scalar _ -> true | Arg_range r -> is_base r) args
  | Construct _ | Comp _ -> false

(* One branch of a state's body, classified. *)
type branch_kind =
  | Exit of range  (** [EACH v IN base: TRUE] *)
  | Right of range * range  (** [base ∘ app] *)
  | Left of range * range  (** [app ∘ base] *)
  | Square of range * range  (** [app ∘ app] *)

(* [def]'s branch [k] as an exit or a chain composition, in [def]'s own
   terms; [schema_of] types a binder range in [def]'s body. *)
let classify def schema_of k (b : branch) =
  let column r i = Schema.attr_name (schema_of r) i in
  let binary r =
    if Schema.arity (schema_of r) <> 2 then
      decline "branch %d ranges over %a, which is not binary" k pp_range r
  in
  match b.binders with
  | [ (v, r) ] ->
    if not (is_base r) then
      decline "branch %d is an exit over %a, not a base range" k pp_range r;
    binary r;
    if b.where <> True then decline "branch %d restricts its exit %a" k pp_range r;
    (match b.target with
    | [] -> ()
    | [ Field (v0, a); Field (v1, c) ]
      when v0 = v && v1 = v && a = column r 0 && c = column r 1 -> ()
    | _ -> decline "branch %d's target is not its exit's own columns" k);
    Exit r
  | [ (x, rx); (y, ry) ] -> (
    if x = y then decline "branch %d binds %s twice" k x;
    List.iter binary [ rx; ry ];
    let range_of v = if v = x then rx else ry in
    let l, r =
      match b.target with
      | [ Field (l, a); Field (r, c) ]
        when l <> r && List.mem l [ x; y ] && List.mem r [ x; y ]
             && a = column (range_of l) 0
             && c = column (range_of r) 1 ->
        (l, r)
      | _ -> decline "branch %d's target is not <left.first, right.second>" k
    in
    let rl = range_of l and rr = range_of r in
    let joins_composed = function
      | Cmp (Eq, Field (u, a), Field (w, c)) ->
        (u = l && a = column rl 1 && w = r && c = column rr 0)
        || (u = r && a = column rr 0 && w = l && c = column rl 1)
      | _ -> false
    in
    (match conjuncts b.where with
    | [ j ] when joins_composed j -> ()
    | [ _ ] -> decline "branch %d does not join on the composed columns" k
    | [] -> decline "branch %d has no join" k
    | _ -> decline "branch %d has a conjunct besides the join" k);
    let app = function Construct _ -> true | _ -> false in
    match (app rl, app rr) with
    | false, true when is_base rl -> Right (rl, rr)
    | true, false when is_base rr -> Left (rl, rr)
    | true, true -> Square (rl, rr)
    | false, false when is_base rl && is_base rr ->
      decline "branch %d composes two base ranges: an exit that is not a base range" k
    | _ ->
      decline "branch %d ranges over %a: a computed range" k pp_range
        (if app rl || is_base rl then rr else rl))
  | binders ->
    let apps = List.filter (fun (_, r) -> match r with Construct _ -> true | _ -> false) binders in
    (match (binders, apps) with
    | [ _; (_, Construct _); _ ], [ _ ] ->
      decline "branch %d composes base·%s·base: mixed linearity" k def.Defs.con_name
    | _ ->
      decline "branch %d joins %d ranges, not a base range and one application" k
        (List.length binders))

(* [def]'s substitution: its formal and parameters to the ranges and
   terms [base] and [args] pass, in the root's terms.  A global name the
   root's own formal or parameters hide cannot be said in its terms. *)
let substitution (root : Defs.constructor_def) (def : Defs.constructor_def) base args =
  let names =
    (def.con_formal, Arg_range base)
    :: List.map2
         (fun p a -> ((match p with Defs.Scalar_param (n, _) | Defs.Rel_param (n, _) -> n), a))
         def.con_params args
  in
  let root_names =
    root.con_formal
    :: List.map (function Defs.Scalar_param (n, _) | Defs.Rel_param (n, _) -> n) root.con_params
  in
  let term = function
    | Param p as t -> (
      match List.assoc_opt p names with Some (Arg_scalar t) -> t | _ -> t)
    | t -> t
  in
  let rec range = function
    | Rel n -> (
      match List.assoc_opt n names with
      | Some (Arg_range r) -> r
      | _ when List.mem n root_names ->
        decline "%s names %s, which %s hides" def.con_name n root.con_name
      | _ -> Rel n)
    | Select (r, s, a) -> Select (range r, s, List.map arg a)
    | Construct (r, c, a) -> Construct (range r, c, List.map arg a)
    | Comp _ as r -> r
  and arg = function
    | Arg_scalar t -> Arg_scalar (term t)
    | Arg_range r -> Arg_range (range r)
  in
  range

(* Does [def]'s body read its formal?  One that does not denotes the same
   relation whatever base it is applied to, as the constructors
   [Translate.to_constructors] makes of Horn rules, which apply each
   other to empty placeholder bases. *)
let reads_formal (def : Defs.constructor_def) =
  let formal =
    { Morph.skip with range = (fun _ acc r -> acc || r = Rel def.con_formal) }
  in
  List.exists (Morph.fold_branch formal false) def.con_body

let check (catalog : Typecheck.env) (root : Defs.constructor_def) =
  let states = Hashtbl.create 8 and labels = Hashtbl.create 8 in
  let pending = Queue.create () in
  let number table x =
    match Hashtbl.find_opt table x with
    | Some i -> i
    | None ->
      let i = Hashtbl.length table in
      Hashtbl.add table x i;
      i
  in
  (* applications of a constructor that ignores its formal are one state,
     keyed by its own formal as the base *)
  let canonical = function
    | Construct (_, c, args) as app -> (
      match catalog.constructor_of c with
      | Some def when not (reads_formal def) -> Construct (Rel def.con_formal, c, args)
      | Some _ | None -> app)
    | app -> app
  in
  let state app =
    let app = canonical app in
    if not (Hashtbl.mem states app) then begin
      if Hashtbl.length states = max_states then
        decline "the system has more than %d applications" max_states;
      Queue.add (Hashtbl.length states, app) pending
    end;
    number states app
  in
  (* (state, label) exits and (state, (label, state)) steps, last first;
     the first branch of each side, and the first squaring *)
  let exits = ref [] and steps = ref [] in
  let right = ref None and left = ref None and square = ref None in
  let first side at = if !side = None then side := Some at in
  ignore
    (state
       (Construct
          ( Rel root.con_formal,
            root.con_name,
            List.map
              (function
                | Defs.Scalar_param (n, _) -> Arg_scalar (Param n)
                | Defs.Rel_param (n, _) -> Arg_range (Rel n))
              root.con_params )));
  while not (Queue.is_empty pending) do
    let q, app = Queue.pop pending in
    let base, c, args =
      match app with Construct (b, c, a) -> (b, c, a) | _ -> assert false
    in
    let def =
      match catalog.constructor_of c with
      | Some def -> def
      | None -> decline "unknown constructor %s" c
    in
    if def.con_agg <> None then decline "%s has an aggregate head" c;
    if not (Schema.key_is_whole_tuple def.con_result) then
      decline "the result key of %s is not the whole tuple" c;
    if Schema.arity def.con_result <> 2 then decline "the result of %s is not binary" c;
    let subst = substitution root def base args in
    let env = Typecheck.body_env catalog def in
    let schema_of r =
      try Typecheck.infer_range env [] r
      with Typecheck.Error msg -> decline "%s: %s" c msg
    in
    let to_state k = function
      | Construct (Rel _, _, args) as app
        when List.for_all
               (function
                 | Arg_range (Rel _) | Arg_scalar (Const _ | Param _) -> true
                 | _ -> false)
               args ->
        state (subst app)
      | r -> decline "%s's branch %d applies %a to a computed range" c k pp_range r
    in
    List.iteri
      (fun i b ->
        let k = i + 1 in
        let step side l a =
          steps := (q, (number labels (subst l), to_state k a)) :: !steps;
          first side (c, k)
        in
        match classify def schema_of k b with
        | Exit r -> exits := (q, number labels (subst r)) :: !exits
        | Right (l, a) -> step right l a
        | Left (a, l) -> step left l a
        | Square (a, a') ->
          ignore (to_state k a, to_state k a');
          first square (c, k))
      def.con_body
  done;
  let n = Hashtbl.length states in
  let labels =
    let a = Array.make (Hashtbl.length labels) (Rel "") in
    Hashtbl.iter (fun r l -> a.(l) <- r) labels;
    a
  in
  let per_state rules =
    Array.init n (fun q ->
        List.rev (List.filter_map (fun (q', x) -> if q = q' then Some x else None) rules))
  in
  let system linear =
    {
      automaton =
        { linear; exits = per_state !exits; steps = per_state !steps; root = 0 };
      labels;
    }
  in
  if n = 1 && Array.length labels = 1 && !exits <> [] && (!steps <> [] || !square <> None)
  then
    (* the closure of one relation, whatever mix of compositions its
       body lists: stepping and squaring compute the same set *)
    { automaton = Dc_exec.Reach.closure; labels }
  else
    match (!square, !right, !left) with
    | Some (c, k), _, _ ->
      decline "%s's branch %d composes an application with an application" c k
    | None, Some (c, k), Some (c', k') ->
      decline "mixed linearity: %s's branch %d is right-linear, %s's branch %d left-linear"
        c k c' k'
    | None, _, Some _ -> system `Left
    | None, _, None -> system `Right

let recognise catalog def =
  match check catalog def with
  | system -> Regular system
  | exception Decline why -> Declined why
