(* Tests for Dc_core: selectors, constructor fixpoints, database checks. *)

open Dc_relation
open Dc_calculus
open Dc_core

let s v = Value.Str v
let pair a b = Tuple.make2 (s a) (s b)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i =
    i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1))
  in
  nn = 0 || loop 0

let rel_testable = Alcotest.testable Relation.pp Relation.equal

let edge_schema = Constructor.binary_schema Value.TStr

let chain_rel n =
  (* "n0" -> "n1" -> ... -> "n<n>" *)
  Relation.of_list edge_schema
    (List.init n (fun i -> pair (Fmt.str "n%d" i) (Fmt.str "n%d" (i + 1))))

let db_with_chain ?strategy n =
  let db = Database.create ?strategy () in
  Database.declare db "Edge" edge_schema;
  Database.set db "Edge" (chain_rel n);
  Database.define_constructor db (Constructor.transitive_closure ());
  db

(* Expected transitive closure of the chain. *)
let chain_tc n =
  let tuples = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n do
      tuples := pair (Fmt.str "n%d" i) (Fmt.str "n%d" j) :: !tuples
    done
  done;
  Relation.of_list edge_schema !tuples

let test_tc_chain () =
  let db = db_with_chain 6 in
  let result = Database.query db Ast.(Construct (Rel "Edge", "tc", [])) in
  Alcotest.check rel_testable "closure of 6-chain" (chain_tc 6) result

let test_tc_matches_algebra () =
  List.iter
    (fun n ->
      let db = db_with_chain n in
      let result = Database.query db Ast.(Construct (Rel "Edge", "tc", [])) in
      let expected = Algebra.transitive_closure (chain_rel n) in
      Alcotest.check rel_testable
        (Fmt.str "tc(%d-chain) = Algebra.transitive_closure" n)
        expected result)
    [ 1; 2; 5; 9 ]

let test_strategies_agree () =
  List.iter
    (fun linear ->
      let edges =
        Relation.of_list edge_schema
          [
            pair "a" "b"; pair "b" "c"; pair "c" "a"; (* cycle *)
            pair "c" "d"; pair "d" "e"; pair "x" "y";
          ]
      in
      let mk strategy =
        let db = Database.create ~strategy () in
        Database.declare db "Edge" edge_schema;
        Database.set db "Edge" edges;
        Database.define_constructor db
          (Constructor.transitive_closure ~linear ());
        Database.query db Ast.(Construct (Rel "Edge", "tc", []))
      in
      Alcotest.check rel_testable "naive = semi-naive" (mk Fixpoint.Naive)
        (mk Fixpoint.Seminaive))
    [ `Right; `Left; `Non ]

let test_mutual_ahead_above () =
  (* lamp in front of vase, vase on table, table in front of chair.
     above: vase above chair   (vase on table, table ahead of chair)
     ahead: lamp ahead of chair (lamp in front of vase, vase above chair) *)
  let db = Database.create () in
  Database.declare db "Infront" (Constructor.infront_schema Value.TStr);
  Database.declare db "Ontop" (Constructor.ontop_schema Value.TStr);
  Database.insert_all db "Infront" [ pair "lamp" "vase"; pair "table" "chair" ];
  Database.insert_all db "Ontop" [ pair "vase" "table" ];
  let ahead, above = Constructor.ahead_above () in
  Database.define_constructors db [ ahead; above ];
  let ahead_rel =
    Database.query db
      Ast.(Construct (Rel "Infront", "ahead", [ Arg_range (Rel "Ontop") ]))
  in
  let above_rel =
    Database.query db
      Ast.(Construct (Rel "Ontop", "above", [ Arg_range (Rel "Infront") ]))
  in
  Alcotest.check Alcotest.bool "vase above chair" true
    (Relation.mem (pair "vase" "chair") above_rel);
  Alcotest.check Alcotest.bool "lamp ahead of table" true
    (Relation.mem (pair "lamp" "table") ahead_rel);
  Alcotest.check Alcotest.bool "lamp ahead of chair" true
    (Relation.mem (pair "lamp" "chair") ahead_rel);
  Alcotest.check rel_testable "ahead exactly"
    (Relation.of_list
       (Constructor.ahead_schema Value.TStr)
       [ pair "lamp" "vase"; pair "table" "chair"; pair "lamp" "table";
         pair "lamp" "chair" ])
    ahead_rel

let test_positivity_rejects_nonsense () =
  let db = Database.create () in
  Database.declare db "R" (Schema.make [ ("x", Value.TStr) ]);
  match Database.define_constructor db (Constructor.nonsense ()) with
  | () -> Alcotest.fail "expected Database.Error"
  | exception Database.Error msg ->
    Alcotest.check Alcotest.bool "message names the violation" true
      (contains msg "nonsense")

let test_nonsense_oscillates () =
  let db = Database.create ~check_positivity:false () in
  Database.declare db "R" (Schema.make [ ("x", Value.TStr) ]);
  Database.insert_all db "R" [ Tuple.make1 (s "a"); Tuple.make1 (s "b") ];
  Database.define_constructor db (Constructor.nonsense ());
  match Database.query db Ast.(Construct (Rel "R", "nonsense", [])) with
  | _ -> Alcotest.fail "expected Divergence"
  | exception Fixpoint.Divergence _ -> ()

let test_strange_converges () =
  (* Paper §3.3: Rel = {0..6}, Rel{strange} = {0,2,4,6} despite
     non-monotonicity. *)
  let db = Database.create ~check_positivity:false () in
  let schema = Schema.make [ ("number", Value.TInt) ] in
  Database.declare db "Card" schema;
  Database.set db "Card"
    (Relation.of_list schema (List.init 7 (fun i -> Tuple.make1 (Value.Int i))));
  Database.define_constructor db (Constructor.strange ());
  let result = Database.query db Ast.(Construct (Rel "Card", "strange", [])) in
  let expected =
    Relation.of_list schema
      (List.map (fun i -> Tuple.make1 (Value.Int i)) [ 0; 2; 4; 6 ])
  in
  Alcotest.check rel_testable "strange = {0,2,4,6}" expected result

let test_ahead_n_limit () =
  (* lim ahead_n = ahead (§3.1): on a 5-chain, ahead_6 already equals tc. *)
  let db = db_with_chain 5 in
  Database.define_constructors db (Constructor.ahead_n 6);
  let tc = Database.query db Ast.(Construct (Rel "Edge", "tc", [])) in
  let a6 = Database.query db Ast.(Construct (Rel "Edge", "ahead_6", [])) in
  Alcotest.check Alcotest.bool "ahead_6 = tc on 5-chain" true
    (Relation.equal tc a6);
  let a2 = Database.query db Ast.(Construct (Rel "Edge", "ahead_2", [])) in
  Alcotest.check Alcotest.int "ahead_2 cardinality" (5 + 4)
    (Relation.cardinal a2)

let from_selector =
  {
    Defs.sel_name = "from";
    sel_formal = "Rel";
    sel_formal_schema = edge_schema;
    sel_params = [ Defs.Scalar_param ("Obj", Value.TStr) ];
    sel_var = "r";
    sel_pred = Ast.(eq (field "r" "src") (Param "Obj"));
  }

let test_selector_filters () =
  let db = db_with_chain 3 in
  Database.define_selector db from_selector;
  let result =
    Database.query db
      Ast.(Select (Rel "Edge", "from", [ Arg_scalar (str "n1") ]))
  in
  Alcotest.check rel_testable "Edge[from(n1)]"
    (Relation.of_list edge_schema [ pair "n1" "n2" ])
    result

let test_selector_then_constructor () =
  (* Rel[sel]{tc}: §3.1-style composition of the two mechanisms *)
  let db = db_with_chain 4 in
  Database.define_selector db from_selector;
  let result =
    Database.query db
      Ast.(
        Construct
          (Select (Rel "Edge", "from", [ Arg_scalar (str "n2") ]), "tc", []))
  in
  Alcotest.check rel_testable "closure of selected subrelation"
    (Relation.of_list edge_schema [ pair "n2" "n3" ])
    result

let test_guarded_assignment () =
  let db = db_with_chain 2 in
  let sel =
    {
      Defs.sel_name = "no_self_loop";
      sel_formal = "Rel";
      sel_formal_schema = edge_schema;
      sel_params = [];
      sel_var = "r";
      sel_pred = Ast.(Cmp (Ne, field "r" "src", field "r" "dst"));
    }
  in
  Database.define_selector db sel;
  (* legal: closure of a chain has no self loops *)
  Database.assign_selected db "Edge" ~selector:"no_self_loop" ~args:[]
    Ast.(Construct (Rel "Edge", "tc", []));
  Alcotest.check Alcotest.int "assigned closure" 3
    (Relation.cardinal (Database.get db "Edge"));
  (* illegal: a self loop violates the predicate *)
  Database.set db "Loop" (Relation.of_list edge_schema [ pair "a" "a" ]);
  match
    Database.assign_selected db "Edge" ~selector:"no_self_loop" ~args:[]
      Ast.(Rel "Loop")
  with
  | () -> Alcotest.fail "expected Selector_violation"
  | exception Selector.Selector_violation _ -> ()

let test_key_constraint () =
  let schema =
    Schema.make ~key:[ "id" ] [ ("id", Value.TInt); ("name", Value.TStr) ]
  in
  let r = Relation.of_list schema [ Tuple.make2 (Value.Int 1) (s "a") ] in
  (match Relation.add (Tuple.make2 (Value.Int 1) (s "b")) r with
  | _ -> Alcotest.fail "expected Key_violation"
  | exception Relation.Key_violation _ -> ());
  let r' = Relation.add (Tuple.make2 (Value.Int 1) (s "a")) r in
  Alcotest.check Alcotest.int "idempotent add" 1 (Relation.cardinal r')

let test_same_generation () =
  let db = Database.create () in
  List.iter (fun n -> Database.declare db n edge_schema) [ "Up"; "Flat"; "Down" ];
  Database.insert_all db "Up" [ pair "c1" "p1"; pair "c2" "p2" ];
  Database.insert_all db "Flat" [ pair "p1" "p2" ];
  Database.insert_all db "Down" [ pair "p2" "c2" ];
  Database.define_constructor db (Constructor.same_generation ());
  let result =
    Database.query db
      Ast.(
        Construct
          ( Rel "Up",
            "same_generation",
            [ Arg_range (Rel "Flat"); Arg_range (Rel "Down") ] ))
  in
  Alcotest.check Alcotest.bool "c1 sg c2" true
    (Relation.mem (pair "c1" "c2") result);
  Alcotest.check Alcotest.bool "p1 sg p2" true
    (Relation.mem (pair "p1" "p2") result)

(* Scalar-parameterized constructors: the application key includes the
   argument values, so Edge{reach_from("a")} and Edge{reach_from("b")} are
   distinct applications of the same definition. *)
let reach_from_def =
  {
    Defs.con_name = "reach_from";
    con_formal = "Rel";
    con_formal_schema = edge_schema;
    con_params = [ Defs.Scalar_param ("Obj", Value.TStr) ];
    con_result = edge_schema;
    con_agg = None;
    con_body =
      Ast.
        [
          branch [ ("r", Rel "Rel") ] ~where:(eq (field "r" "src") (Param "Obj"));
          branch
            [
              ( "f",
                Construct (Rel "Rel", "reach_from", [ Arg_scalar (Param "Obj") ])
              );
              ("b", Rel "Rel");
            ]
            ~target:[ field "f" "src"; field "b" "dst" ]
            ~where:(eq (field "f" "dst") (field "b" "src"));
        ];
  }

let test_scalar_parameterized_constructor () =
  let db = db_with_chain 5 in
  Database.define_constructor db reach_from_def;
  let query obj =
    Database.query db
      Ast.(Construct (Rel "Edge", "reach_from", [ Arg_scalar (str obj) ]))
  in
  Alcotest.check rel_testable "reachable from n1"
    (Relation.of_list edge_schema
       [ pair "n1" "n2"; pair "n1" "n3"; pair "n1" "n4"; pair "n1" "n5" ])
    (query "n1");
  Alcotest.check Alcotest.int "reachable from n3" 2
    (Relation.cardinal (query "n3"));
  Alcotest.check Alcotest.int "reachable from absent node" 0
    (Relation.cardinal (query "zzz"));
  (* one application per argument value in one system *)
  match Database.last_stats db with
  | Some st -> Alcotest.check Alcotest.int "single app" 1 st.Fixpoint.applications
  | None -> Alcotest.fail "no stats"

(* Stratified negation over constructors: a definition may apply a
   constructor from a *lower* dependency SCC under NOT — it acts as a
   constant during this system's iteration (closed-world reading, §3.4).
   non_desc selects the pairs NOT in the closure. *)
let test_stratified_negation_over_constructor () =
  let db = db_with_chain 3 in
  (* candidate pairs to classify *)
  Database.declare db "Pairs" edge_schema;
  Database.insert_all db "Pairs"
    [ pair "n0" "n3"; pair "n3" "n0"; pair "n1" "n1" ];
  let non_desc =
    {
      Defs.con_name = "non_desc";
      con_formal = "Rel";
      con_formal_schema = edge_schema;
      con_params = [];
      con_result = edge_schema;
      con_agg = None;
      con_body =
        Ast.
          [
            branch
              [ ("p", Rel "Rel") ]
              ~where:
                (Not
                   (Member
                      ( [ field "p" "src"; field "p" "dst" ],
                        Construct (Rel "Edge", "tc", []) )));
          ];
    }
  in
  (* accepted: tc is in a lower SCC, so the odd-depth occurrence is legal *)
  Database.define_constructor db non_desc;
  let result = Database.query db Ast.(Construct (Rel "Pairs", "non_desc", [])) in
  Alcotest.check rel_testable "pairs not in the closure"
    (Relation.of_list edge_schema [ pair "n3" "n0"; pair "n1" "n1" ])
    result

(* The same shape with the negation *inside the recursion* is rejected. *)
let test_negative_self_recursion_rejected () =
  let db = db_with_chain 2 in
  let bad =
    {
      Defs.con_name = "bad";
      con_formal = "Rel";
      con_formal_schema = edge_schema;
      con_params = [];
      con_result = edge_schema;
      con_agg = None;
      con_body =
        Ast.
          [
            branch
              [ ("p", Rel "Rel") ]
              ~where:
                (Not
                   (Member
                      ( [ field "p" "src"; field "p" "dst" ],
                        Construct (Rel "Rel", "bad", []) )));
          ];
    }
  in
  match Database.define_constructor db bad with
  | () -> Alcotest.fail "expected positivity rejection"
  | exception Database.Error _ -> ()

let test_group_definition_rollback () =
  (* a failing group must leave the registry unchanged *)
  let db = db_with_chain 2 in
  let good = Constructor.ahead_2 () in
  let bad =
    { (Constructor.nonsense ()) with Defs.con_formal_schema = edge_schema }
  in
  (match Database.define_constructors db [ good; bad ] with
  | () -> Alcotest.fail "expected rejection of the group"
  | exception Database.Error _ -> ());
  Alcotest.check Alcotest.bool "good def not registered either" true
    (Database.constructor db "ahead2" = None);
  Alcotest.check Alcotest.bool "tc still present" true
    (Database.constructor db "tc" <> None)

let test_closed_formula () =
  let db = db_with_chain 3 in
  Alcotest.check Alcotest.bool "membership formula" true
    (Database.eval_formula db
       Ast.(Member ([ str "n0"; str "n1" ], Rel "Edge")));
  Alcotest.check Alcotest.bool "quantified formula" true
    (Database.eval_formula db
       Ast.(Some_in ("r", Rel "Edge", eq (field "r" "dst") (str "n3"))));
  Alcotest.check Alcotest.bool "over a constructed relation" true
    (Database.eval_formula db
       Ast.(Member ([ str "n0"; str "n3" ], Construct (Rel "Edge", "tc", []))))

(* The §3.4 alternatives all compute the same closure. *)
let test_alternatives_agree () =
  let edges =
    Relation.of_list edge_schema
      [ pair "a" "b"; pair "b" "c"; pair "c" "a"; pair "c" "d" ]
  in
  let reference = Algebra.transitive_closure edges in
  List.iter
    (fun (name, f) ->
      Alcotest.check rel_testable name reference (f edges))
    [
      ("program iteration", Alternatives.program_iteration);
      ("recursive function", Alternatives.recursive_function);
      ("specialized operator", Alternatives.specialized_operator);
      ("equational lfp", Alternatives.equational);
    ];
  (* membership function, incl. cyclic data and negative answers *)
  Alcotest.check Alcotest.bool "a reaches d" true
    (Alternatives.membership_function edges (s "a") (s "d"));
  Alcotest.check Alcotest.bool "a reaches a (cycle)" true
    (Alternatives.membership_function edges (s "a") (s "a"));
  Alcotest.check Alcotest.bool "d reaches a" false
    (Alternatives.membership_function edges (s "d") (s "a"))

let test_lfp_combinator () =
  (* lfp of a constant step is that constant *)
  let r = Relation.of_list edge_schema [ pair "x" "y" ] in
  let got = Alternatives.lfp ~bottom:(Relation.empty edge_schema) (fun _ -> r) in
  Alcotest.check rel_testable "constant step" r got

let test_round_budget () =
  let db = Database.create () in
  Database.declare db "Edge" edge_schema;
  Database.set db "Edge" (chain_rel 10);
  let tc = Constructor.transitive_closure () in
  Database.define_constructor db tc;
  match
    Fixpoint.apply ~max_rounds:3 (Database.eval_env db) tc
      (Database.get db "Edge") []
  with
  | _ -> Alcotest.fail "expected Divergence (budget)"
  | exception Fixpoint.Divergence msg ->
    Alcotest.check Alcotest.bool "mentions max_rounds" true
      (contains msg "max_rounds")

let test_coerce_rejects () =
  let keyed =
    Schema.make ~key:[ "src" ] [ ("src", Value.TStr); ("dst", Value.TStr) ]
  in
  let dupes =
    Relation.of_list edge_schema [ pair "a" "b"; pair "a" "c" ]
  in
  match Database.coerce keyed dupes with
  | _ -> Alcotest.fail "expected Key_violation via coerce"
  | exception Relation.Key_violation _ -> ()

let test_fixpoint_stats () =
  let db = db_with_chain 8 in
  ignore (Database.query db Ast.(Construct (Rel "Edge", "tc", [])));
  match Database.last_stats db with
  | None -> Alcotest.fail "no stats recorded"
  | Some st ->
    Alcotest.check Alcotest.bool "rounds > 2" true (st.Fixpoint.rounds > 2);
    Alcotest.check Alcotest.int "single application system" 1
      st.Fixpoint.applications

(* An order-sensitive digest of a round-delta list, for pinning the
   scene's 260 per-round counts in one number. *)
let digest_deltas = List.fold_left (fun h d -> ((h * 65599) + d) land 0x3fffffff) 0

let tc_db linear edges =
  let db = Database.create () in
  Database.declare db "Edge" Dc_workload.Graph_gen.edge_schema;
  Database.set db "Edge" edges;
  Database.define_constructor db (Constructor.transitive_closure ~linear ());
  db

let tc_query = Ast.(Construct (Rel "Edge", "tc", []))

(* The round kernel changes what a derivation costs, never which
   derivations happen: rounds, [tuples_derived] (distinct tuples per
   application per round, rediscoveries included), [tuples_produced]
   and the per-round deltas keep the values the environment-row kernel
   produced.  Chain 600 runs more rounds than a novelty table's byte
   stamp counts, so its stamps wrap twice. *)
let test_fixpoint_work_unchanged () =
  let module G = Dc_workload.Graph_gen in
  let check name query db ~rounds ~derived ~produced ~deltas =
    ignore (Database.query db query);
    match Database.last_stats db with
    | None -> Alcotest.fail "no stats recorded"
    | Some st ->
      Alcotest.check Alcotest.int (name ^ " rounds") rounds st.Fixpoint.rounds;
      Alcotest.check Alcotest.int (name ^ " derived") derived
        st.Fixpoint.tuples_derived;
      Alcotest.check Alcotest.int (name ^ " produced") produced
        st.Fixpoint.tuples_produced;
      Alcotest.check Alcotest.int (name ^ " round deltas") deltas
        (digest_deltas st.Fixpoint.round_deltas)
  in
  (* a right-linear chain of n edges gains n, n-1, ..., 1, 0 tuples *)
  let linear_deltas n = digest_deltas (List.init (n + 1) Fun.id) in
  check "non-linear tc, chain 256" tc_query (tc_db `Non (G.chain 256))
    ~rounds:10 ~derived:63_743 ~produced:32_896
    ~deltas:
      (digest_deltas [ 0; 8256; 10272; 6672; 3720; 1956; 1002; 507; 255; 256 ]);
  check "right-linear tc, chain 256" tc_query (tc_db `Right (G.chain 256))
    ~rounds:257 ~derived:32_896 ~produced:32_896 ~deltas:(linear_deltas 256);
  check "right-linear tc, chain 600" tc_query (tc_db `Right (G.chain 600))
    ~rounds:601 ~derived:180_300 ~produced:180_300 ~deltas:(linear_deltas 600);
  check "3.1 scene, depth 256" Oracle.scene_query (Oracle.scene_db 256) ~rounds:260
    ~derived:83_200 ~produced:83_200 ~deltas:434_392_960

(* A mutual system with an Opaque member: [tcm] is the right-linear
   closure through [hop] (Diffable), and [hop] is [tcm] again, re-read in
   its WHERE clause, so it is evaluated naively every round and reads
   [tcm]'s value as a relation in the middle of the round. *)
let opaque_mutual_db n =
  let db = Database.create () in
  Database.declare db "Edge" edge_schema;
  Database.set db "Edge" (chain_rel n);
  let def name body =
    {
      Defs.con_name = name;
      con_formal = "Rel";
      con_formal_schema = edge_schema;
      con_params = [];
      con_result = edge_schema;
      con_agg = None;
      con_body = body;
    }
  in
  let tcm_of_rel = Ast.Construct (Ast.Rel "Rel", "tcm", []) in
  Database.define_constructors db
    Ast.
      [
        def "tcm"
          [
            identity_branch (Rel "Rel");
            branch
              [ ("f", Rel "Rel"); ("b", Construct (Rel "Rel", "hop", [])) ]
              ~target:[ field "f" "src"; field "b" "dst" ]
              ~where:(eq (field "f" "dst") (field "b" "src"));
          ];
        def "hop"
          [ branch [ ("p", tcm_of_rel) ] ~where:(In_rel ("p", tcm_of_rel)) ];
      ];
  db

let opaque_mutual_query = Ast.(Construct (Rel "Edge", "tcm", []))

(* A Diffable application's value is merged from its pending deltas only
   when something reads it as a relation, when the pending tuples reach
   the merged value's size, or at convergence.  None of that may move a
   count: rounds, tuples produced and derived, body evaluations and the
   per-round deltas keep the values the engine had when it merged every
   round, sequentially and with the rounds sharded over four domains. *)
let test_deferred_merge_work () =
  let module G = Dc_workload.Graph_gen in
  let module Par = Dc_par.Par in
  let work (st : Fixpoint.stats) =
    Fmt.str "rounds=%d produced=%d derived=%d evals=%d deltas=%d" st.rounds
      st.tuples_produced st.tuples_derived st.body_evaluations
      (digest_deltas st.round_deltas)
  in
  let check p name db query expected_rel expected =
    let name = Fmt.str "%s, P=%d" name p in
    Database.reset_last_stats db;
    Alcotest.check rel_testable (name ^ ": value") expected_rel
      (Database.query db query);
    match Database.last_stats db with
    | None -> Alcotest.fail "no stats recorded"
    | Some st ->
      Alcotest.check Alcotest.string (name ^ ": work") expected (work st)
  in
  let scene_db = Oracle.scene_db 64 in
  let scene = Database.query scene_db Oracle.scene_query in
  List.iter
    (fun p ->
      Par.with_domains p (fun () ->
          Par.with_seq_cutoff 1 (fun () ->
              check p "right-linear tc, chain 256" (tc_db `Right (G.chain 256))
                tc_query (Algebra.transitive_closure (G.chain 256))
                "rounds=257 produced=32896 derived=32896 evals=258 \
                 deltas=159654016";
              check p "non-linear tc, chain 256" (tc_db `Non (G.chain 256))
                tc_query (Algebra.transitive_closure (G.chain 256))
                "rounds=10 produced=32896 derived=63743 evals=20 \
                 deltas=676573470";
              check p "3.1 scene, depth 64" scene_db Oracle.scene_query scene
                "rounds=68 produced=5440 derived=5440 evals=272 \
                 deltas=337286112";
              check p "Opaque reads Diffable, chain 40" (opaque_mutual_db 40)
                opaque_mutual_query (chain_tc 40)
                "rounds=81 produced=1640 derived=45100 evals=162 \
                 deltas=837831936")))
    [ 1; 4 ]

(* Merging a value is where a keyed result's key is checked.  The closure
   of n0 -> n1 -> n2 plus eight unrelated edges gains one tuple, <n0, n2>,
   too few for the size rule to merge it, and into a relation keyed on
   [src] it violates the key.  It must still raise Key_violation: as the
   queried application, and as one that only [wrap]'s delta variants read,
   whose runs are merged only at convergence. *)
let test_deferred_merge_checks_keys () =
  let db = db_with_chain 2 in
  Database.insert_all db "Edge"
    (List.init 8 (fun i -> pair (Fmt.str "x%d" i) (Fmt.str "y%d" i)));
  let keyed =
    Schema.make ~key:[ "src" ] [ ("src", Value.TStr); ("dst", Value.TStr) ]
  in
  Database.define_constructors db
    [
      {
        (Constructor.transitive_closure ~name:"tck" ()) with
        con_result = keyed;
      };
      {
        Defs.con_name = "wrap";
        con_formal = "Rel";
        con_formal_schema = edge_schema;
        con_params = [];
        con_result = edge_schema;
        con_agg = None;
        con_body = Ast.[ branch [ ("p", Construct (Rel "Rel", "tck", [])) ] ];
      };
    ];
  List.iter
    (fun con ->
      match Database.query db Ast.(Construct (Rel "Edge", con, [])) with
      | _ -> Alcotest.failf "%s: expected Key_violation" con
      | exception Relation.Key_violation _ -> ())
    [ "tck"; "wrap" ]

(* Deferred merges change when a value is built, never what it is: on
   seeded graphs, closures of every linearity, same generation and the
   scene equal the Horn-clause engine's answer to the translated
   program, sequentially and sharded over four domains. *)
let test_deferred_merge_oracle () =
  let module G = Dc_workload.Graph_gen in
  let module Par = Dc_par.Par in
  let module D = Dc_datalog in
  let agree name db query =
    let ctx = D.Translate.context (Database.typecheck_env db) in
    let program, pred = D.Translate.of_application ctx query in
    let edb = D.Translate.edb (Snapshot.get (Database.snapshot db)) program in
    let expected = D.Seminaive.query program edb pred in
    let got = Database.query db query in
    Alcotest.check Alcotest.bool (name ^ ": = Seminaive") true
      (Relation.Tuple_set.equal expected
         (Relation.fold Relation.Tuple_set.add got Relation.Tuple_set.empty))
  in
  let sg_db n =
    let up, flat, down = G.same_generation_tree n in
    let db = Database.create () in
    List.iter
      (fun (name, rel) ->
        Database.declare db name G.edge_schema;
        Database.set db name rel)
      [ ("Up", up); ("Flat", flat); ("Down", down) ];
    Database.define_constructor db (Constructor.same_generation ());
    db
  in
  let sg_query =
    Ast.(
      Construct
        ( Rel "Up",
          "same_generation",
          [ Arg_range (Rel "Flat"); Arg_range (Rel "Down") ] ))
  in
  List.iter
    (fun p ->
      Par.with_domains p (fun () ->
          Par.with_seq_cutoff 1 (fun () ->
              List.iter
                (fun seed ->
                  let edges = G.random_graph ~seed ~nodes:40 ~edges:90 in
                  List.iter
                    (fun (lin, l) ->
                      agree
                        (Fmt.str "%s tc, seed %d, P=%d" lin seed p)
                        (tc_db l edges) tc_query)
                    [ ("right-linear", `Right); ("left-linear", `Left);
                      ("non-linear", `Non) ])
                [ 1; 2; 3 ];
              agree (Fmt.str "same generation, P=%d" p) (sg_db 5) sg_query;
              agree (Fmt.str "3.1 scene, P=%d" p) (Oracle.scene_db 48)
                Oracle.scene_query)))
    [ 1; 4 ]

(* An expansion aborted mid-fixpoint (row budget, or a failpoint at a
   round's commit) leaves nothing behind: a clean re-run counts exactly
   the work of a run that never saw the abort, sequentially and with the
   rounds sharded over four domains. *)
let test_abort_then_rerun () =
  let module G = Dc_workload.Graph_gen in
  let module Guard = Dc_guard.Guard in
  let module Par = Dc_par.Par in
  let last_work db =
    match Database.last_stats db with
    | None -> Alcotest.fail "no stats recorded"
    | Some st -> Oracle.fixpoint_work st
  in
  let case name db query =
    let clean = (ignore (Database.query db query); last_work db) in
    let aborted how run =
      Database.reset_last_stats db;
      (match run () with
      | (_ : Relation.t) -> Alcotest.failf "%s: expected an abort (%s)" name how
      | exception Guard.Exhausted _ -> ());
      ignore (Database.query db query);
      Alcotest.check Alcotest.string
        (Fmt.str "%s: re-run after %s" name how)
        clean (last_work db)
    in
    aborted "row budget" (fun () ->
        Database.query ~guard:(Guard.create ~rows:1_000 ()) db query);
    Guard.Failpoint.reset ();
    Fun.protect ~finally:Guard.Failpoint.reset (fun () ->
        Guard.Failpoint.arm "fixpoint.commit" 5;
        aborted "failpoint" (fun () -> Database.query db query))
  in
  List.iter
    (fun p ->
      Par.with_domains p (fun () ->
          Par.with_seq_cutoff 1 (fun () ->
              case (Fmt.str "tc P=%d" p) (tc_db `Non (G.chain 40)) tc_query;
              case (Fmt.str "scene P=%d" p) (Oracle.scene_db 32) Oracle.scene_query)))
    [ 1; 4 ]

let () =
  Alcotest.run "dc_core"
    [
      ( "fixpoint",
        [
          Alcotest.test_case "tc of chain" `Quick test_tc_chain;
          Alcotest.test_case "tc matches algebra" `Quick test_tc_matches_algebra;
          Alcotest.test_case "naive = semi-naive" `Quick test_strategies_agree;
          Alcotest.test_case "mutual ahead/above" `Quick test_mutual_ahead_above;
          Alcotest.test_case "ahead_n limit" `Quick test_ahead_n_limit;
          Alcotest.test_case "same generation" `Quick test_same_generation;
          Alcotest.test_case "stats recorded" `Quick test_fixpoint_stats;
          Alcotest.test_case "work unchanged by deferred merges" `Quick
            test_deferred_merge_work;
          Alcotest.test_case "deferred merges = Seminaive" `Quick
            test_deferred_merge_oracle;
          Alcotest.test_case "deferred merges check keys" `Quick
            test_deferred_merge_checks_keys;
          Alcotest.test_case "work unchanged by the round kernel" `Quick
            test_fixpoint_work_unchanged;
          Alcotest.test_case "scalar-parameterized constructor" `Quick
            test_scalar_parameterized_constructor;
          Alcotest.test_case "aborted expansion, clean re-run" `Quick
            test_abort_then_rerun;
        ] );
      ( "positivity",
        [
          Alcotest.test_case "nonsense rejected" `Quick
            test_positivity_rejects_nonsense;
          Alcotest.test_case "nonsense oscillates" `Quick
            test_nonsense_oscillates;
          Alcotest.test_case "strange converges" `Quick test_strange_converges;
          Alcotest.test_case "stratified NOT over lower SCC" `Quick
            test_stratified_negation_over_constructor;
          Alcotest.test_case "negative self-recursion rejected" `Quick
            test_negative_self_recursion_rejected;
        ] );
      ( "guards",
        [
          Alcotest.test_case "round budget" `Quick test_round_budget;
          Alcotest.test_case "coerce re-checks keys" `Quick test_coerce_rejects;
          Alcotest.test_case "group definition rollback" `Quick
            test_group_definition_rollback;
          Alcotest.test_case "closed formulas" `Quick test_closed_formula;
        ] );
      ( "alternatives (3.4)",
        [
          Alcotest.test_case "all agree" `Quick test_alternatives_agree;
          Alcotest.test_case "lfp combinator" `Quick test_lfp_combinator;
        ] );
      ( "selectors",
        [
          Alcotest.test_case "filter" `Quick test_selector_filters;
          Alcotest.test_case "compose with constructor" `Quick
            test_selector_then_constructor;
          Alcotest.test_case "guarded assignment" `Quick test_guarded_assignment;
        ] );
      ( "relation",
        [ Alcotest.test_case "key constraint" `Quick test_key_constraint ] );
    ]
