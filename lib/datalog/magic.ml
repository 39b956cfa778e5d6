(* Magic-sets transformation: the "capture rules" style optimization the
   paper's §4 points at ([Ullm 84]) for propagating query constants into
   recursive definitions.

   Given a positive, safe program and a query atom with some constant
   arguments, the transformation produces an adorned program with magic
   predicates so that bottom-up evaluation only derives facts relevant to
   the query bindings.  Sideways information passing is left-to-right.

   This is the general form of the paper's §4 "Case" rules: the pushed
   selection of experiment E4 is exactly what magic sets achieves on the
   parameterized transitive-closure query. *)

open Syntax

module SS = Syntax.SS

exception Unsupported of string

type adornment = bool list (* true = bound *)

let adornment_string ad =
  String.concat "" (List.map (fun b -> if b then "b" else "f") ad)

let adorned_name p ad = Fmt.str "%s__%s" p (adornment_string ad)
let magic_name p ad = Fmt.str "m_%s__%s" p (adornment_string ad)

(* bound arguments of an atom under an adornment *)
let bound_args (a : atom) (ad : adornment) =
  List.filteri (fun i _ -> List.nth ad i) a.args

(* Computed (Binop) terms belong to the aggregate extension, which only
   the semi-naive engine evaluates. *)
let no_binop () =
  raise (Unsupported "magic sets: computed (Binop) terms not supported")

let atom_adornment bound_vars (a : atom) : adornment =
  List.map
    (function
      | Const _ -> true
      | Var v -> SS.mem v bound_vars
      | Binop _ -> no_binop ())
    a.args

type compiled = {
  rules : program; (* adorned and magic rules, without the seed fact *)
  seed_pred : string; (* magic predicate of the query's binding pattern *)
  adorned : string; (* adorned name of the query predicate *)
  pattern : adornment;
}

(* Adorn [program] for the binding pattern [pattern] of a query on
   [pred]: the adorned and magic rules a query with that pattern runs,
   whatever its constants — the seed fact comes at run time. *)
let compile (program : program) pred (pattern : adornment) =
  List.iter
    (fun r ->
      if
        List.exists
          (function
            | Neg _ -> true
            | Pos _ | Test _ -> false)
          r.body
      then raise (Unsupported "magic sets: negation not supported"))
    program;
  let idb = idb_preds program in
  let out = ref [] in
  let emitted = Hashtbl.create 16 in
  (* Process one (pred, adornment) pair: adorn all rules for pred. *)
  let rec process pred (ad : adornment) =
    if not (Hashtbl.mem emitted (pred, ad)) then begin
      Hashtbl.replace emitted (pred, ad) ();
      List.iter
        (fun rule ->
          if String.equal rule.head.pred pred then adorn_rule rule ad)
        program
    end
  and adorn_rule rule (ad : adornment) =
    (* variables bound on entry: head vars in bound positions *)
    let entry_bound =
      List.fold_left2
        (fun s arg b ->
          match arg with
          | Var v when b -> SS.add v s
          | Var _ | Const _ -> s
          | Binop _ -> no_binop ())
        SS.empty rule.head.args ad
    in
    let magic_head_atom =
      { pred = magic_name rule.head.pred ad; args = bound_args rule.head ad }
    in
    (* walk the body left-to-right, accumulating bound vars and emitting
       magic rules for IDB atoms *)
    let rec walk bound prefix_rev = function
      | [] -> List.rev prefix_rev
      | Test (op, x, y) :: rest ->
        let bound =
          List.fold_left (fun s v -> SS.add v s) bound
            (term_vars x @ term_vars y)
        in
        walk bound (Test (op, x, y) :: prefix_rev) rest
      | Neg _ :: _ -> assert false
      | Pos a :: rest ->
        let lit, bound' =
          if SS.mem a.pred idb then begin
            let a_ad = atom_adornment bound a in
            process a.pred a_ad;
            (* magic rule: m_a^ad(bound args) :- m_head^ad(...), prefix;
               a rule whose body is its head derives nothing (a
               left-linear recursive call passes its own bindings on) *)
            let head =
              { pred = magic_name a.pred a_ad; args = bound_args a a_ad }
            in
            let body = Pos magic_head_atom :: List.rev prefix_rev in
            if body <> [ Pos head ] then out := { head; body } :: !out;
            ( Pos { a with pred = adorned_name a.pred a_ad },
              List.fold_left (fun s v -> SS.add v s) bound (atom_vars a) )
          end
          else
            (Pos a, List.fold_left (fun s v -> SS.add v s) bound (atom_vars a))
        in
        walk bound' (lit :: prefix_rev) rest
    in
    let body = walk entry_bound [] rule.body in
    out :=
      {
        head = { rule.head with pred = adorned_name rule.head.pred ad };
        body = Pos magic_head_atom :: body;
      }
      :: !out
  in
  if not (SS.mem pred idb) then
    raise (Unsupported "magic sets: query predicate is not IDB");
  process pred pattern;
  {
    rules = List.rev !out;
    seed_pred = magic_name pred pattern;
    adorned = adorned_name pred pattern;
    pattern;
  }

let rules c = c.rules

(* The query's binding pattern: its constant arguments are bound. *)
let pattern_of (query : atom) =
  List.map
    (function
      | Const _ -> true
      | Var _ -> false
      | Binop _ -> no_binop ())
    query.args

(* The compiled program seeded with the query's constants: the seed fact
   first, then the adorned and magic rules. *)
let seeded c (query : atom) =
  if pattern_of query <> c.pattern then
    invalid_arg
      "Magic.run: the query's binding pattern is not the compiled one";
  { head = { pred = c.seed_pred; args = bound_args query c.pattern }; body = [] }
  :: c.rules

(* Evaluate [query] through a compiled program with semi-naive
   evaluation; returns the set of query-matching tuples of the original
   predicate. *)
let run ?guard ?stats ?trace c (edb : Facts.t) (query : atom) =
  let store = Seminaive.run ?guard ?stats ?trace (seeded c query) edb in
  let matching = Facts.find store c.adorned in
  (* keep only tuples agreeing with the query constants *)
  Facts.TS.filter
    (fun t ->
      List.for_all2
        (fun arg v ->
          match arg with
          | Const c -> Dc_relation.Value.equal c v
          | Var _ -> true
          | Binop _ -> no_binop ())
        query.args (Dc_relation.Tuple.to_list t))
    matching

let answer ?guard ?stats ?trace (program : program) (edb : Facts.t)
    (query : atom) =
  run ?guard ?stats ?trace
    (compile program query.pred (pattern_of query))
    edb query
