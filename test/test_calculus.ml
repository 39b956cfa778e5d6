(* Tests for Dc_calculus: evaluation, typechecking, positivity, NNF. *)

open Dc_relation
open Dc_calculus
open Ast

let i n = Value.Int n

let rel_testable = Alcotest.testable Relation.pp Relation.equal

let bin = Schema.make [ ("src", Value.TInt); ("dst", Value.TInt) ]

let pairs l = Relation.of_pairs bin (List.map (fun (a, b) -> (i a, i b)) l)

let edges = pairs [ (1, 2); (2, 3); (3, 4); (2, 5) ]

let env () = Eval.make_env [ ("E", edges) ]

(* { EACH r IN E: r.src = 2 } *)
let test_select () =
  let q = Comp [ branch [ ("r", Rel "E") ] ~where:(eq (field "r" "src") (int 2)) ] in
  Alcotest.check rel_testable "selection"
    (pairs [ (2, 3); (2, 5) ])
    (Eval.eval_range (env ()) q)

(* join via two binders: <f.src, b.dst> OF EACH f IN E, EACH b IN E: f.dst = b.src *)
let join_query =
  Comp
    [
      branch
        [ ("f", Rel "E"); ("b", Rel "E") ]
        ~target:[ field "f" "src"; field "b" "dst" ]
        ~where:(eq (field "f" "dst") (field "b" "src"));
    ]

let test_join () =
  Alcotest.check rel_testable "join"
    (pairs [ (1, 3); (1, 5); (2, 4) ])
    (Eval.eval_range (env ()) join_query)

(* union of branches *)
let test_union_branches () =
  let q =
    Comp
      [
        branch [ ("r", Rel "E") ] ~where:(eq (field "r" "src") (int 1));
        branch [ ("r", Rel "E") ] ~where:(eq (field "r" "dst") (int 4));
      ]
  in
  Alcotest.check rel_testable "union"
    (pairs [ (1, 2); (3, 4) ])
    (Eval.eval_range (env ()) q)

(* SOME / ALL / NOT *)
let test_quantifiers () =
  (* sources that reach a node that itself has a successor:
     EACH r IN E: SOME x IN E (r.dst = x.src) *)
  let q =
    Comp
      [
        branch [ ("r", Rel "E") ]
          ~where:(Some_in ("x", Rel "E", eq (field "r" "dst") (field "x" "src")));
      ]
  in
  Alcotest.check rel_testable "SOME"
    (pairs [ (1, 2); (2, 3) ])
    (Eval.eval_range (env ()) q);
  (* edges whose target is terminal: NOT SOME x (dst = x.src) *)
  let q2 =
    Comp
      [
        branch [ ("r", Rel "E") ]
          ~where:
            (Not
               (Some_in ("x", Rel "E", eq (field "r" "dst") (field "x" "src"))));
      ]
  in
  Alcotest.check rel_testable "NOT SOME"
    (pairs [ (2, 5); (3, 4) ])
    (Eval.eval_range (env ()) q2);
  (* ALL over an empty range is vacuously true *)
  let empty_env = Eval.make_env [ ("E", Relation.empty bin) ] in
  Alcotest.check Alcotest.bool "vacuous ALL" true
    (Eval.eval_formula empty_env
       (All_in ("x", Rel "E", eq (field "x" "src") (int 0))))

let test_membership () =
  let f = Member ([ int 1; int 2 ], Rel "E") in
  Alcotest.check Alcotest.bool "member" true (Eval.eval_formula (env ()) f);
  let f2 = Member ([ int 1; int 5 ], Rel "E") in
  Alcotest.check Alcotest.bool "not member" false (Eval.eval_formula (env ()) f2)

let test_nested_comprehension () =
  (* range nesting (N1): successors of successors of 1, through a nested
     comprehension as range *)
  let inner =
    Comp [ branch [ ("r", Rel "E") ] ~where:(eq (field "r" "src") (int 1)) ]
  in
  let q =
    Comp
      [
        branch
          [ ("s", inner); ("b", Rel "E") ]
          ~target:[ field "s" "src"; field "b" "dst" ]
          ~where:(eq (field "s" "dst") (field "b" "src"));
      ]
  in
  Alcotest.check rel_testable "nested range"
    (pairs [ (1, 3); (1, 5) ])
    (Eval.eval_range (env ()) q)

let test_arith_target () =
  let q =
    Comp
      [
        branch [ ("r", Rel "E") ]
          ~target:
            [ field "r" "src"; Binop (Mul, field "r" "dst", int 10) ];
      ]
  in
  Alcotest.check rel_testable "computed target"
    (pairs [ (1, 20); (2, 30); (3, 40); (2, 50) ])
    (Eval.eval_range (env ()) q)

(* ------------------------------------------------------------------ *)
(* Typechecking *)

let tenv = Typecheck.env [ ("E", bin) ]

let test_typecheck_ok () =
  Typecheck.check_query tenv join_query;
  Alcotest.check Alcotest.bool "well-typed join" true true

let expect_type_error name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Typecheck.Error")
  | exception Typecheck.Error _ -> ()

let test_typecheck_errors () =
  expect_type_error "unknown relation" (fun () ->
      Typecheck.check_query tenv (Rel "Nope"));
  expect_type_error "unknown attribute" (fun () ->
      Typecheck.check_query tenv
        (Comp [ branch [ ("r", Rel "E") ] ~where:(eq (field "r" "nope") (int 1)) ]));
  expect_type_error "type mismatch in comparison" (fun () ->
      Typecheck.check_query tenv
        (Comp
           [ branch [ ("r", Rel "E") ] ~where:(eq (field "r" "src") (str "x")) ]));
  expect_type_error "unbound variable" (fun () ->
      Typecheck.check_query tenv
        (Comp [ branch [ ("r", Rel "E") ] ~where:(eq (field "q" "src") (int 1)) ]));
  expect_type_error "identity with two binders" (fun () ->
      Typecheck.check_query tenv
        (Comp [ branch [ ("a", Rel "E"); ("b", Rel "E") ] ]));
  expect_type_error "incompatible union branches" (fun () ->
      Typecheck.check_query tenv
        (Comp
           [
             branch [ ("r", Rel "E") ];
             branch [ ("r", Rel "E") ] ~target:[ field "r" "src" ];
           ]))

(* ------------------------------------------------------------------ *)
(* Positivity and NNF *)

let test_positivity_counts () =
  (* NOT (r IN X): X at depth 1 *)
  let f = Not (In_rel ("r", Rel "X")) in
  (match Positivity.occurrences_formula f with
  | [ { occ_target = Positivity.Rel_name "X"; occ_depth = 1 } ] -> ()
  | _ -> Alcotest.fail "expected X at depth 1");
  (* ALL x IN X (x IN Y): X depth 1, Y depth 0 *)
  let f2 = All_in ("x", Rel "X", In_rel ("x", Rel "Y")) in
  let occs = Positivity.occurrences_formula f2 in
  let depth name =
    List.find_map
      (fun o ->
        if o.Positivity.occ_target = Positivity.Rel_name name then
          Some o.Positivity.occ_depth
        else None)
      occs
  in
  Alcotest.check Alcotest.(option int) "X under ALL" (Some 1) (depth "X");
  Alcotest.check Alcotest.(option int) "Y not under ALL" (Some 0) (depth "Y");
  (* NOT ALL x IN X: depth 2 (even => positive) *)
  let f3 = Not (All_in ("x", Rel "X", True)) in
  match Positivity.occurrences_formula f3 with
  | [ { occ_target = Positivity.Rel_name "X"; occ_depth = 2 } ] -> ()
  | _ -> Alcotest.fail "expected X at depth 2"

let test_nnf () =
  let f =
    Not (And (In_rel ("r", Rel "X"), Not (Some_in ("x", Rel "Y", True))))
  in
  let n = Normalize.nnf f in
  Alcotest.check Alcotest.bool "result is NNF" true (Normalize.is_nnf n);
  (* NOT(a AND NOT b) => NOT a OR b *)
  (match n with
  | Or (Not (In_rel _), Some_in _) -> ()
  | _ -> Alcotest.failf "unexpected NNF: %a" Ast.pp_formula n);
  (* double negation *)
  let f2 = Not (Not (In_rel ("r", Rel "X"))) in
  Alcotest.check Alcotest.bool "double negation" true
    (Normalize.nnf f2 = In_rel ("r", Rel "X"))

let test_polarity () =
  (* X positive under NOT NOT; negative under single NOT *)
  let pos = Not (Not (In_rel ("r", Rel "X"))) in
  Alcotest.check Alcotest.bool "even => monotone" true
    (Normalize.monotone_in_formula pos (Positivity.Rel_name "X"));
  let negf = Not (In_rel ("r", Rel "X")) in
  Alcotest.check Alcotest.bool "odd => not monotone" false
    (Normalize.monotone_in_formula negf (Positivity.Rel_name "X"));
  (* ALL range is antitone, ALL body keeps polarity *)
  let allf = All_in ("x", Rel "X", In_rel ("x", Rel "Y")) in
  Alcotest.check Alcotest.bool "ALL range antitone" false
    (Normalize.monotone_in_formula allf (Positivity.Rel_name "X"));
  Alcotest.check Alcotest.bool "ALL body monotone" true
    (Normalize.monotone_in_formula allf (Positivity.Rel_name "Y"))

(* The §3.3 lemma: positivity implies monotonicity — checked semantically.
   Generate random formulas over a relation X; when the positivity count
   says even, evaluation must be monotone in X on random extensions.

   The formulas range over X, over nested comprehensions and over
   applications of [same], an identity constructor; their terms read the
   variables in scope ([r] free, [x] bound by quantifiers, [y] by
   comprehensions), constants and the scalar parameter [k]. *)
let same_def =
  {
    Defs.con_name = "same";
    con_formal = "Rel";
    con_formal_schema = bin;
    con_params = [];
    con_result = bin;
    con_agg = None;
    con_body = [ identity_branch (Rel "Rel") ];
  }

let formula_env rel =
  let hooks =
    {
      Eval.no_hooks with
      constructor_def = (fun c -> if c = "same" then Some same_def else None);
      on_construct = (fun _ base _ _ -> base);
    }
  in
  Eval.make_env ~scalars:[ ("k", i 2) ] ~hooks [ ("X", rel) ]

let gen_formula scope =
  let open QCheck.Gen in
  let term scope =
    oneof
      [
        map2 field (oneofl scope) (oneofl [ "src"; "dst" ]);
        map Ast.int (int_bound 5);
        return (Param "k");
      ]
  in
  let cmp scope =
    map2 (fun v t -> Cmp (Eq, field v "src", t)) (oneofl scope) (term scope)
  in
  sized
  @@ fun n ->
  fix
    (fun self (n, scope) ->
      let range =
        if n = 0 then oneofl [ Rel "X"; Construct (Rel "X", "same", []) ]
        else
          frequency
            [
              (2, return (Rel "X"));
              (1, return (Construct (Rel "X", "same", [])));
              ( 1,
                map
                  (fun where -> Comp [ branch [ ("y", Rel "X") ] ~where ])
                  (self (n / 2, "y" :: scope)) );
            ]
      in
      let leaf =
        oneof
          [
            map2 (fun v r -> In_rel (v, r)) (oneofl scope) range;
            map2
              (fun v r -> Member ([ field v "src"; field v "dst" ], r))
              (oneofl scope) range;
            cmp scope;
            return True;
          ]
      in
      if n = 0 then leaf
      else
        let sub = self (n / 2, scope) and body = self (n / 2, "x" :: scope) in
        oneof
          [
            leaf;
            map (fun f -> Not f) sub;
            map2 (fun a b -> And (a, b)) sub sub;
            map2 (fun a b -> Or (a, b)) sub sub;
            map2 (fun r f -> Some_in ("x", r, f)) range body;
            map2 (fun r f -> All_in ("x", r, f)) range body;
          ])
    (n, scope)

let arb_formula = QCheck.make (gen_formula [ "r" ]) ~print:formula_to_string

let prop_positivity_implies_monotone =
  QCheck.Test.make ~name:"positive formulas are monotone (lemma 3.3)"
    ~count:200
    QCheck.(pair arb_formula (pair QCheck.(list_of_size (Gen.int_bound 5) (QCheck.pair QCheck.(int_bound 4) QCheck.(int_bound 4))) QCheck.(list_of_size (Gen.int_bound 3) (QCheck.pair QCheck.(int_bound 4) QCheck.(int_bound 4)))))
    (fun (f, (small_pairs, extra_pairs)) ->
      QCheck.assume (Positivity.positive_in_formula f "X");
      let small = pairs small_pairs in
      let big = Relation.union small (pairs extra_pairs) in
      (* every tuple satisfying f under the small X still satisfies it
         under the bigger X *)
      let env_small = formula_env small in
      let env_big = formula_env big in
      Relation.for_all
        (fun t ->
          (not (Eval.eval_formula (Eval.bind_var env_small "r" t bin) f))
          || Eval.eval_formula (Eval.bind_var env_big "r" t bin) f)
        big)

let prop_nnf_preserves_semantics =
  QCheck.Test.make ~name:"nnf preserves truth" ~count:200
    QCheck.(
      pair arb_formula
        (list_of_size (Gen.int_bound 6) (pair (int_bound 4) (int_bound 4))))
    (fun (f, ps) ->
      let rel = pairs ps in
      let env = formula_env rel in
      Relation.for_all
        (fun t ->
          let env = Eval.bind_var env "r" t bin in
          Eval.eval_formula env f = Eval.eval_formula env (Normalize.nnf f))
        rel)

(* ------------------------------------------------------------------ *)
(* The generic fold and map *)

let prop_map_identity =
  QCheck.Test.make ~name:"map with identity callbacks is the identity"
    ~count:200 arb_formula (fun f -> Morph.map_formula Morph.id () f = f)

let prop_subst_params =
  let params =
    { Morph.skip with term = (fun _ n -> function Param _ -> n + 1 | _ -> n) }
  in
  QCheck.Test.make ~name:"subst_params [] is the identity; [k] removes k"
    ~count:200 arb_formula (fun f ->
      Morph.map_formula (Morph.subst_params []) () f = f
      && Morph.fold_formula params 0
           (Morph.map_formula (Morph.subst_params [ ("k", Ast.int 3) ]) () f)
         = 0)

(* [x] is both the branch's binder and the quantifiers' variable: renaming
   the binder must leave the quantified occurrences alone, so the free
   variables and the answer stay the same *)
let prop_standardize_apart_keeps_free_vars =
  let env =
    Eval.bind_var
      (formula_env (pairs [ (1, 2); (2, 3); (2, 2); (3, 1); (4, 2) ]))
      "r" (Tuple.make2 (i 2) (i 3)) bin
  in
  QCheck.Test.make ~name:"standardize_apart keeps the free variables"
    ~count:200
    (QCheck.make (gen_formula [ "r"; "x" ]) ~print:formula_to_string)
    (fun f ->
      let b = branch [ ("x", Rel "X") ] ~target:[ field "x" "src" ] ~where:f in
      let b' = Dc_compile.Rewrite.(standardize_apart (names ())) b in
      List.map fst b'.binders <> [ "x" ]
      && Vars.S.equal
           (Vars.free_vars_range (Comp [ b ]))
           (Vars.free_vars_range (Comp [ b' ]))
      && Relation.equal
           (Eval.eval_range env (Comp [ b ]))
           (Eval.eval_range env (Comp [ b' ])))

(* The §3.3 lemma over the one fold: each occurrence's NOT/ALL-range depth
   parity is its polarity in the negation normal form.  Occurrences are
   named apart first (NNF may drop an absorbed one, never copy one). *)
let prop_depth_parity_is_polarity =
  QCheck.Test.make ~name:"depth parity = NNF polarity (lemma 3.3)" ~count:300
    arb_formula (fun f ->
      let n = ref 0 in
      let fresh name =
        incr n;
        Fmt.str "%s%d" name !n
      in
      let f =
        Morph.map_formula
          {
            Morph.id with
            range =
              (fun () -> function
                | Rel name -> Rel (fresh name)
                | Construct (b, c, args) -> Construct (b, fresh c, args)
                | r -> r);
          }
          () f
      in
      let depth = Positivity.occurrences_formula f in
      List.for_all
        (fun (p : Normalize.polar_occurrence) ->
          match
            List.filter
              (fun (o : Positivity.occurrence) -> o.occ_target = p.po_target)
              depth
          with
          | [ o ] ->
            (o.occ_depth mod 2 = 0) = (p.po_polarity = Normalize.Positive)
          | _ -> false)
        (Normalize.polarities_formula f))

(* ------------------------------------------------------------------ *)
(* More evaluation corner cases *)

let test_correlated_nested_range () =
  (* the inner comprehension's predicate references the outer binder:
     EACH r IN E, EACH s IN {EACH x IN E: x.src = r.dst}: TRUE
     with target <r.src, s.dst> — two-step paths via a correlated range *)
  let q =
    Comp
      [
        branch
          [
            ("r", Rel "E");
            ( "s",
              Comp
                [
                  branch [ ("x", Rel "E") ]
                    ~where:(eq (field "x" "src") (field "r" "dst"));
                ] );
          ]
          ~target:[ field "r" "src"; field "s" "dst" ];
      ]
  in
  Alcotest.check rel_testable "correlated range"
    (pairs [ (1, 3); (1, 5); (2, 4) ])
    (Eval.eval_range (env ()) q)

let test_quantifier_shadowing () =
  (* inner SOME shadows the outer binder name *)
  let q =
    Comp
      [
        branch [ ("r", Rel "E") ]
          ~where:
            (Some_in
               ( "r",
                 Rel "E",
                 (* this r is the inner one *)
                 eq (field "r" "src") (int 3) ));
      ]
  in
  (* some edge with src=3 exists, so the condition holds for every tuple *)
  Alcotest.check Alcotest.int "shadowed quantifier" 4
    (Relation.cardinal (Eval.eval_range (env ()) q))

let test_or_not_filters () =
  let q =
    Comp
      [
        branch [ ("r", Rel "E") ]
          ~where:
            (disj
               (eq (field "r" "src") (int 1))
               (Not (Cmp (Lt, field "r" "dst", int 5))));
      ]
  in
  Alcotest.check rel_testable "OR/NOT filter"
    (pairs [ (1, 2); (2, 5) ])
    (Eval.eval_range (env ()) q)

let test_member_with_binop () =
  let f = Member ([ int 1; Binop (Add, int 1, int 1) ], Rel "E") in
  Alcotest.check Alcotest.bool "computed membership" true
    (Eval.eval_formula (env ()) f)

(* Brute-force reference evaluation: enumerate all binder combinations,
   evaluate the full WHERE at the end — no conjunct scheduling, no
   indexes.  The optimized evaluator must agree on random branches. *)
let brute_force env (branches : branch list) =
  let edges_rel = Eval.lookup_rel env "E" in
  let schema = Relation.schema edges_rel in
  List.concat_map
    (fun (b : branch) ->
      let rec loop env = function
        | [] ->
          if Eval.eval_formula env b.where then
            [ Tuple.of_list (List.map (Eval.eval_term env) b.target) ]
          else []
        | (v, Rel "E") :: rest ->
          Relation.fold
            (fun t acc -> loop (Eval.bind_var env v t schema) rest @ acc)
            edges_rel []
        | _ -> assert false
      in
      loop env b.binders)
    branches

let arb_branch_query =
  let open QCheck in
  let term v =
    Gen.oneof
      [ Gen.oneofl [ field v "src"; field v "dst" ]; Gen.map Ast.int (Gen.int_bound 5) ]
  in
  let vars = [ "a"; "b"; "c" ] in
  let any_term = Gen.oneof (List.map term vars) in
  let cmp =
    Gen.map3
      (fun op x y -> Cmp (op, x, y))
      (Gen.oneofl [ Eq; Ne; Lt; Le; Gt; Ge ])
      any_term any_term
  in
  let rec formula n =
    if n = 0 then cmp
    else
      Gen.oneof
        [
          cmp;
          Gen.map (fun f -> Not f) (formula (n - 1));
          Gen.map2 (fun x y -> And (x, y)) (formula (n - 1)) (formula (n - 1));
          Gen.map2 (fun x y -> Or (x, y)) (formula (n - 1)) (formula (n - 1));
          Gen.map
            (fun f -> Some_in ("q", Rel "E", f))
            (formula (n - 1));
        ]
  in
  let gen =
    Gen.sized (fun n ->
        Gen.map
          (fun f ->
            [
              branch
                [ ("a", Rel "E"); ("b", Rel "E"); ("c", Rel "E") ]
                ~target:[ field "a" "src"; field "c" "dst" ]
                ~where:f;
            ])
          (formula (min n 4)))
  in
  make gen ~print:(fun bs -> range_to_string (Comp bs))

let prop_scheduler_equals_brute_force =
  QCheck.Test.make ~name:"join scheduler = brute force" ~count:150
    arb_branch_query (fun branches ->
      let e = env () in
      let optimized = Eval.eval_range e (Comp branches) in
      let brute =
        List.fold_left
          (fun acc t -> Relation.add_unchecked t acc)
          (Relation.empty (Relation.schema optimized))
          (brute_force e branches)
      in
      Relation.equal optimized brute)

(* ------------------------------------------------------------------ *)
(* Slot-row kernel against a reference nested loop *)

(* The reference: bind the binders in written order with [bind_var],
   each range evaluated under the binders before it, and test the whole
   WHERE at the innermost level — no scheduling, no keys, no slots. *)
let nested_loop env (b : branch) =
  let rec loop env last = function
    | [] ->
      if not (Eval.eval_formula env b.where) then []
      else
        [
          (match b.target with
          | [] -> Option.get last
          | ts -> Tuple.of_list (List.map (Eval.eval_term env) ts));
        ]
    | (v, r) :: rest ->
      let rel = Eval.eval_range env r in
      Relation.fold
        (fun t acc ->
          loop (Eval.bind_var env v t (Relation.schema rel)) (Some t) rest @ acc)
        rel []
  in
  loop env None b.binders

(* Outer tuple variables of every case: [o] is never a binder name, [a]
   is shadowed whenever a binder is named [a]. *)
let outer_vars =
  [ ("a", Tuple.make2 (i 7) (i 8), bin); ("o", Tuple.make2 (i 1) (i 2), bin) ]

(* A 1-3-binder branch over two small relations E and F.  The binder
   names are a shuffle of a, b, c; a later binder may range over a
   comprehension correlated with the binder before it.  WHERE conjoins
   0-3 formulas mixing =, <, #, NOT, OR, SOME, ALL, IN and <...> IN over
   the variables in scope; targets use + and *. *)
let arb_kernel_case =
  let open QCheck.Gen in
  let rel_pairs = list_size (int_bound 6) (pair (int_bound 3) (int_bound 3)) in
  let rel_name = oneofl [ Rel "E"; Rel "F" ] in
  let gen =
    let* e = rel_pairs in
    let* f = rel_pairs in
    let* names = shuffle_l [ "a"; "b"; "c" ] in
    let* n = int_range 1 3 in
    let names = List.filteri (fun k _ -> k < n) names in
    let* ranges =
      flatten_l
        (List.mapi
           (fun k _ ->
             let prev = if k = 0 then "o" else List.nth names (k - 1) in
             oneof
               [
                 rel_name;
                 map
                   (fun r ->
                     Comp
                       [
                         branch [ ("x", r) ]
                           ~where:(eq (field "x" "src") (field prev "dst"));
                       ])
                   rel_name;
               ])
           names)
    in
    let scope = List.sort_uniq compare ("a" :: "o" :: names) in
    let atom scope =
      oneof
        [
          map2 field (oneofl scope) (oneofl [ "src"; "dst" ]);
          map Ast.int (int_bound 3);
        ]
    in
    let term scope =
      frequency
        [
          (3, atom scope);
          ( 1,
            map3
              (fun op x y -> Binop (op, x, y))
              (oneofl [ Add; Mul ]) (atom scope) (atom scope) );
        ]
    in
    let rec formula scope depth =
      let cmp =
        map3
          (fun op x y -> Cmp (op, x, y))
          (oneofl [ Eq; Eq; Lt; Ne ]) (term scope) (term scope)
      in
      if depth = 0 then cmp
      else
        let sub = formula scope (depth - 1) in
        let quantified = formula ("q" :: scope) (depth - 1) in
        frequency
          [
            (3, cmp);
            (1, map (fun f -> Not f) sub);
            (1, map2 (fun x y -> Or (x, y)) sub sub);
            (1, map2 (fun r f -> Some_in ("q", r, f)) rel_name quantified);
            (1, map2 (fun r f -> All_in ("q", r, f)) rel_name quantified);
            (1, map2 (fun v r -> In_rel (v, r)) (oneofl scope) rel_name);
            ( 1,
              map3
                (fun x y r -> Member ([ x; y ], r))
                (term scope) (term scope) rel_name );
          ]
    in
    let* where = list_size (int_bound 3) (formula scope 2) in
    let* target =
      if n = 1 then oneof [ return []; list_size (int_range 1 3) (term scope) ]
      else list_size (int_range 1 3) (term scope)
    in
    return
      ( pairs e,
        pairs f,
        branch (List.combine names ranges) ~target ~where:(conj_list where) )
  in
  QCheck.make gen ~print:(fun (e, f, b) ->
      Fmt.str "E = %a@.F = %a@.%s" Relation.pp e Relation.pp f
        (range_to_string (Comp [ b ])))

let prop_kernel_equals_nested_loop =
  QCheck.Test.make ~name:"slot-row kernel = reference nested loop" ~count:400
    arb_kernel_case (fun (e, f, b) ->
      let env = Eval.make_env ~vars:outer_vars [ ("E", e); ("F", f) ] in
      let kernel = Eval.eval_comp env [ b ] in
      let reference =
        List.fold_left
          (fun acc t -> Relation.add_unchecked t acc)
          (Relation.empty (Relation.schema kernel))
          (nested_loop env b)
      in
      Relation.equal kernel reference)

(* ------------------------------------------------------------------ *)
(* More typechecking *)

let test_typecheck_args () =
  let sel =
    {
      Defs.sel_name = "s";
      sel_formal = "Rel";
      sel_formal_schema = bin;
      sel_params = [ Defs.Scalar_param ("P", Value.TInt) ];
      sel_var = "r";
      sel_pred = eq (field "r" "src") (Param "P");
    }
  in
  let tenv = Typecheck.env ~selectors:[ sel ] [ ("E", bin) ] in
  Typecheck.check_query tenv (Select (Rel "E", "s", [ Arg_scalar (int 1) ]));
  expect_type_error "wrong arity" (fun () ->
      Typecheck.check_query tenv (Select (Rel "E", "s", [])));
  expect_type_error "wrong type" (fun () ->
      Typecheck.check_query tenv (Select (Rel "E", "s", [ Arg_scalar (str "x") ])));
  expect_type_error "relation for scalar" (fun () ->
      Typecheck.check_query tenv
        (Select (Rel "E", "s", [ Arg_range (Rel "E") ])))

let test_typecheck_selector_def () =
  let bad =
    {
      Defs.sel_name = "bad";
      sel_formal = "Rel";
      sel_formal_schema = bin;
      sel_params = [];
      sel_var = "r";
      sel_pred = eq (field "r" "nope") (int 1);
    }
  in
  let tenv = Typecheck.env [ ("E", bin) ] in
  expect_type_error "bad selector body" (fun () ->
      Typecheck.check_selector_def tenv bad)

let test_typecheck_constructor_result () =
  let bad =
    {
      Defs.con_name = "bad";
      con_formal = "Rel";
      con_formal_schema = bin;
      con_params = [];
      con_result = Schema.make [ ("only", Value.TInt) ];
      con_agg = None;
      con_body = [ identity_branch (Rel "Rel") ];
    }
  in
  let tenv = Typecheck.env [ ("E", bin) ] in
  expect_type_error "result type mismatch" (fun () ->
      Typecheck.check_constructor_def tenv bad)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dc_calculus"
    [
      ( "eval",
        [
          Alcotest.test_case "selection" `Quick test_select;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "union branches" `Quick test_union_branches;
          Alcotest.test_case "quantifiers" `Quick test_quantifiers;
          Alcotest.test_case "membership" `Quick test_membership;
          Alcotest.test_case "nested comprehension" `Quick
            test_nested_comprehension;
          Alcotest.test_case "computed target" `Quick test_arith_target;
          Alcotest.test_case "correlated nested range" `Quick
            test_correlated_nested_range;
          Alcotest.test_case "quantifier shadowing" `Quick
            test_quantifier_shadowing;
          Alcotest.test_case "OR/NOT filters" `Quick test_or_not_filters;
          Alcotest.test_case "computed membership" `Quick test_member_with_binop;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "accepts well-typed" `Quick test_typecheck_ok;
          Alcotest.test_case "rejects ill-typed" `Quick test_typecheck_errors;
          Alcotest.test_case "argument checking" `Quick test_typecheck_args;
          Alcotest.test_case "selector body" `Quick test_typecheck_selector_def;
          Alcotest.test_case "constructor result" `Quick
            test_typecheck_constructor_result;
        ] );
      ( "positivity",
        [
          Alcotest.test_case "depth counting" `Quick test_positivity_counts;
          Alcotest.test_case "nnf" `Quick test_nnf;
          Alcotest.test_case "polarity" `Quick test_polarity;
        ] );
      ( "properties",
        qcheck
          [
            prop_positivity_implies_monotone;
            prop_nnf_preserves_semantics;
            prop_map_identity;
            prop_subst_params;
            prop_standardize_apart_keeps_free_vars;
            prop_depth_parity_is_polarity;
            prop_scheduler_equals_brute_force;
          ]
        @ [
            QCheck_alcotest.to_alcotest
              ~rand:(Random.State.make [| 14 |])
              prop_kernel_equals_nested_loop;
          ] );
    ]
