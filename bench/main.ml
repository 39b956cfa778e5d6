(* Benchmark harness: regenerates every experiment of DESIGN.md.

   The paper (VLDB 1985) has no measured tables; its three figures are
   conceptual diagrams and its performance content is a set of explicit
   claims.  Each experiment below reproduces one figure or claim with a
   measured table whose *shape* (who wins, by what trend) must match the
   claim.  EXPERIMENTS.md records the mapping.

     dune exec bench/main.exe               -- all experiment tables + timings
     dune exec bench/main.exe -- e2 e4      -- selected experiments
     dune exec bench/main.exe -- bechamel   -- Bechamel micro-benchmarks only
     dune exec bench/main.exe -- json F     -- recursive, IVM, aggregate and
                                               parallel cells as JSON in F
     dune exec bench/main.exe -- smoke | ivm | agg | parallel | stmt-cache
                                 | wire | wire-codec
                                            -- one section of those cells
     dune exec bench/main.exe -- guard-overhead | obs-overhead
                                            -- the CI overhead gates

   The served and durable paths are measured end to end by servebench/
   (python3 servebench/run.py); the stmt-cache cells time one layer of
   the served read path in process, the wire cells its socket round
   trip to an in-process listener.

   Experiments:
     F3  augmented quant graph + plan for the recursive 'ahead' query
     E1  fixpoint iterations track recursion depth (3.1: lim ahead-n)
     E2  set-oriented vs proof-oriented evaluation (1, 4)
     E3  naive vs semi-naive fixpoint (3.1 loop vs differential)
     E4  constraint propagation into recursion (4, Cases 1-3 / capture rule)
     E5  mutual recursion: ahead/above systems (3.1, 3.2)
     E6  constructors = function-free Horn clauses (3.4 lemma)
     E7  logical vs physical access paths (4, runtime level)
     E8  positivity, divergence detection, and the 'strange' example (3.3)
     E9  typed relational checks: key + referential integrity (2.2, 2.3) *)

open Dc_relation
open Dc_calculus
open Dc_core
open Dc_workload

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

let ms = Fmt.str "%.2f"

(* ------------------------------------------------------------------ *)
(* Table printing *)

let print_table ~title ~claim header rows =
  Fmt.pr "@.## %s@." title;
  Fmt.pr "paper claim: %s@.@." claim;
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  Fmt.pr "%s@." (String.concat " | " (List.map2 pad header widths));
  Fmt.pr "%s@."
    (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
  List.iter
    (fun row -> Fmt.pr "%s@." (String.concat " | " (List.map2 pad row widths)))
    rows;
  Fmt.pr "@."

let observed fmt = Fmt.pr ("observed: " ^^ fmt ^^ "@.")

(* ------------------------------------------------------------------ *)
(* Shared setup *)

let tc_db ?(strategy = Fixpoint.Seminaive) ?(linear = `Right) edges =
  let db = Database.create ~strategy () in
  Database.declare db "Edge" Graph_gen.edge_schema;
  Database.set db "Edge" edges;
  Database.define_constructor db (Constructor.transitive_closure ~linear ());
  db

let tc_query = Ast.(Construct (Rel "Edge", "tc", []))

let run_tc db =
  let result = Database.query db tc_query in
  let stats = Option.get (Database.last_stats db) in
  (result, stats)

let tc_program =
  Dc_datalog.Syntax.
    [
      rule (atom "path" [ var "X"; var "Y" ]) [ Pos (atom "edge" [ var "X"; var "Y" ]) ];
      rule
        (atom "path" [ var "X"; var "Z" ])
        [
          Pos (atom "edge" [ var "X"; var "Y" ]);
          Pos (atom "path" [ var "Y"; var "Z" ]);
        ];
    ]

let edb_of edges =
  Dc_datalog.Facts.of_relation "edge" edges (Dc_datalog.Facts.empty ())

(* {EACH r IN Edge{tc()}: r.src = <value>} *)
let tc_point value =
  Ast.(
    Comp
      [ branch [ ("r", tc_query) ] ~where:(eq (field "r" "src") (str value)) ])

(* The capture rule on tc as [db] defines it: magic sets over its Horn
   translation, bound on src, with no planner in between (the planner
   would pick the closure's orientation for the binding itself). *)
let magic_tc db value =
  let catalog = Database.typecheck_env db in
  let def = Option.get (Database.constructor db "tc") in
  let program, query, compiled =
    Dc_compile.Pushdown.magic_query
      ~ctx:(Dc_datalog.Translate.context catalog)
      ~schema:def.con_result tc_query
      [ ("src", Ast.str value) ]
  in
  Dc_compile.Pushdown.run_magic ~guard:Dc_guard.Guard.none
    ~stats:(Dc_datalog.Seminaive.fresh_stats ())
    ~edb:
      (Dc_datalog.Translate.edb
         (fun n -> Some (Database.get db n))
         program)
    ~schema:def.con_result compiled query

(* ------------------------------------------------------------------ *)
(* F3: augmented quant graph and plan for the paper's Fig 3 query *)

let exp_f3 () =
  Fmt.pr "@.## F3: augmented quant graph (paper Fig. 3)@.";
  Fmt.pr
    "paper claim: the augmented quant graph of a query over 'ahead' \
     contains a cycle through the constructor head, so the compiler must \
     generate a fixpoint plan; restricting by constants enables a capture \
     rule.@.@.";
  let db = tc_db (Graph_gen.chain 4) in
  (* the unrestricted application: recursive cycle, fixpoint plan *)
  let d1 = Dc_compile.Planner.plan (Database.typecheck_env db) tc_query in
  Fmt.pr "--- unrestricted application ---@.%a@." Dc_compile.Planner.explain d1;
  (* the restricted application: capture rule *)
  let restricted =
    Ast.(
      Comp
        [
          branch
            [ ("r", Construct (Rel "Edge", "tc", [])) ]
            ~where:(eq (field "r" "src") (str "n0"));
        ])
  in
  let d2 = Dc_compile.Planner.plan (Database.typecheck_env db) restricted in
  Fmt.pr "--- restricted application ---@.%a@." Dc_compile.Planner.explain d2

(* ------------------------------------------------------------------ *)
(* E1: fixpoint iterations track recursion depth *)

let exp_e1 () =
  let rows =
    List.map
      (fun n ->
        let edges = Graph_gen.chain n in
        let _, st_r = run_tc (tc_db ~linear:`Right edges) in
        let _, st_n = run_tc (tc_db ~linear:`Non edges) in
        let tc_size = n * (n + 1) / 2 in
        [
          string_of_int n;
          string_of_int tc_size;
          string_of_int st_r.Fixpoint.rounds;
          string_of_int st_n.Fixpoint.rounds;
        ])
      [ 4; 8; 16; 32; 64 ]
  in
  print_table ~title:"E1: iterations to the least fixpoint (3.1, 3.2)"
    ~claim:
      "the sequence ahead-n converges to ahead after finitely many steps; \
       iteration count tracks the recursion depth of the data (linear in \
       the diameter for the paper's right-linear rule, logarithmic for the \
       non-linear variant)"
    [ "chain n"; "|tc|"; "rounds (right-linear)"; "rounds (non-linear)" ]
    rows;
  observed
    "right-linear rounds grow linearly with n; non-linear rounds grow \
     logarithmically";
  (* the convergence series itself: new tuples per round (the lim ahead-n
     sequence made visible) *)
  let series linear =
    let _, st = run_tc (tc_db ~linear (Graph_gen.chain 16)) in
    String.concat " "
      (List.map string_of_int (List.rev st.Fixpoint.round_deltas))
  in
  Fmt.pr "@.convergence series on chain 16 (new tuples per round):@.";
  Fmt.pr "  right-linear: %s@." (series `Right);
  Fmt.pr "  non-linear:   %s@." (series `Non)

(* ------------------------------------------------------------------ *)
(* E2: set-oriented vs proof-oriented *)

let exp_e2 () =
  let budget = { Dc_datalog.Topdown.max_steps = 5_000_000; max_depth = 2_000 } in
  let row name edges =
    let db = tc_db edges in
    let (result, stats), bu_ms = time (fun () -> run_tc db) in
    let sld_stats = Dc_datalog.Topdown.fresh_stats () in
    let sld_outcome, td_ms =
      time (fun () ->
          match
            Dc_datalog.Topdown.query ~budget ~stats:sld_stats tc_program
              (edb_of edges) "path" 2
          with
          | tuples -> Fmt.str "%d tuples" (List.length tuples)
          | exception Dc_datalog.Topdown.Budget_exhausted msg ->
            (* the depth fuse fires on infinite derivations (cyclic data);
               the step fuse on merely-exponential duplicated subproofs *)
            let is_depth =
              let rec has i =
                i + 5 <= String.length msg
                && (String.sub msg i 5 = "depth" || has (i + 1))
              in
              has 0
            in
            if is_depth then "DIVERGES" else "> step budget")
    in
    [
      name;
      string_of_int (Relation.cardinal edges);
      string_of_int (Relation.cardinal result);
      ms bu_ms;
      string_of_int stats.Fixpoint.tuples_produced;
      (if sld_outcome = "DIVERGES" then "-" else ms td_ms);
      string_of_int sld_stats.Dc_datalog.Topdown.resolution_steps;
      sld_outcome;
    ]
  in
  let rows =
    [
      row "chain 64" (Graph_gen.chain 64);
      row "tree d=7" (Graph_gen.binary_tree 7);
      row "layered 6x3" (Graph_gen.layered ~layers:6 ~width:3);
      row "layered 8x3" (Graph_gen.layered ~layers:8 ~width:3);
      row "layered 10x3" (Graph_gen.layered ~layers:10 ~width:3);
      row "cycle 24" (Graph_gen.cycle 24);
    ]
  in
  print_table
    ~title:"E2: set-oriented construction vs proof-oriented resolution (1, 4)"
    ~claim:
      "many recursive queries can be evaluated more efficiently within the \
       set-construction framework of database systems than with \
       proof-oriented methods; and the problem of endless loops is \
       eliminated (3.4)"
    [
      "workload"; "|edges|"; "|tc|"; "bottom-up ms"; "tuples";
      "top-down ms"; "SLD steps"; "SLD outcome";
    ]
    rows;
  observed
    "bottom-up work is bounded by the answer size; SLD re-proves shared \
     subgoals (steps explode on the layered DAGs) and loops forever on \
     cyclic data, where the fixpoint still terminates"

(* ------------------------------------------------------------------ *)
(* E2b: tabling — the proof-oriented world's eventual fix *)

let exp_e2b () =
  let row name edges =
    let db = tc_db edges in
    let (result, _), bu_ms = time (fun () -> run_tc db) in
    let tstats = Dc_datalog.Tabled.fresh_stats () in
    let tabled, tab_ms =
      time (fun () ->
          Dc_datalog.Tabled.query ~stats:tstats tc_program (edb_of edges)
            "path" 2)
    in
    assert (Dc_datalog.Facts.TS.cardinal tabled = Relation.cardinal result);
    [
      name;
      string_of_int (Relation.cardinal result);
      ms bu_ms;
      ms tab_ms;
      string_of_int tstats.Dc_datalog.Tabled.calls;
      string_of_int tstats.Dc_datalog.Tabled.rounds;
    ]
  in
  let rows =
    [
      row "chain 64" (Graph_gen.chain 64);
      row "layered 8x3" (Graph_gen.layered ~layers:8 ~width:3);
      row "cycle 24" (Graph_gen.cycle 24);
    ]
  in
  print_table
    ~title:
      "E2b: tabled resolution — memoization turns proof search into a \
       goal-directed fixpoint"
    ~claim:
      "(extension beyond the paper) the deficiencies E2 exhibits are \
       inherent to memoization-free resolution, not to the top-down \
       direction: tabling terminates on cycles and shares subproofs — \
       converging on the set-oriented behaviour the paper advocates"
    [
      "workload"; "|tc|"; "bottom-up ms"; "tabled ms"; "tabled calls";
      "rounds";
    ]
    rows;
  observed
    "tabling terminates on the cycle where plain SLD diverged, and its \
     work is polynomial like the bottom-up engines — at the price of \
     maintaining per-subgoal tables"

let exp_e3 () =
  let rows =
    List.map
      (fun n ->
        let edges = Graph_gen.chain n in
        let (_, st_naive), naive_ms =
          time (fun () -> run_tc (tc_db ~strategy:Fixpoint.Naive edges))
        in
        let (_, st_semi), semi_ms =
          time (fun () -> run_tc (tc_db ~strategy:Fixpoint.Seminaive edges))
        in
        [
          string_of_int n;
          ms naive_ms;
          string_of_int st_naive.Fixpoint.tuples_derived;
          ms semi_ms;
          string_of_int st_semi.Fixpoint.tuples_derived;
          Fmt.str "%.1fx" (naive_ms /. max 0.001 semi_ms);
        ])
      [ 16; 32; 64; 128; 256 ]
  in
  print_table
    ~title:"E3: naive vs semi-naive fixpoint computation (3.1, 4)"
    ~claim:
      "the REPEAT loop of 3.1 recomputes the whole expression each round; \
       differential (semi-naive) evaluation of the same constructor avoids \
       rediscovering old tuples, with growing advantage in the recursion \
       depth"
    [
      "chain n"; "naive ms"; "naive derived"; "semi-naive ms";
      "semi-naive derived"; "speedup";
    ]
    rows;
  observed
    "the naive engine re-derives the whole closure every round (derived \
     ~n^3/6 tuples) while semi-naive derives each tuple at most twice \
     (~n^2); the speedup factor grows with n"

(* ------------------------------------------------------------------ *)
(* E4: constraint propagation into recursive definitions *)

let exp_e4 () =
  let restricted = tc_point "n1" in
  let rows =
    List.map
      (fun n ->
        let edges = Graph_gen.two_chains n in
        (* full fixpoint then filter, on the paper's right-linear rule *)
        let db_r = tc_db ~linear:`Right edges in
        let full, full_ms = time (fun () -> Database.query db_r restricted) in
        (* capture rule on each recursion orientation: magic sets prunes
           everything for the left-linear rule (the magic set stays at the
           query constant), but still derives the whole suffix closure for
           the right-linear one — the orientation condition of [Naqv 84] *)
        let magic linear =
          let db = tc_db ~linear edges in
          let pushed, pushed_ms = time (fun () -> magic_tc db "n1") in
          assert (Relation.equal full pushed);
          pushed_ms
        in
        let right_ms = magic `Right in
        let left_ms = magic `Left in
        [
          string_of_int n;
          string_of_int (Relation.cardinal full);
          ms full_ms;
          ms right_ms;
          ms left_ms;
          Fmt.str "%.1fx" (full_ms /. max 0.001 left_ms);
        ])
      [ 32; 64; 128; 256 ]
  in
  print_table
    ~title:"E4: propagating restrictions into constructors (4, Cases 1-3)"
    ~claim:
      "propagating the constraints given by pred(r) into the constructor \
       definition may considerably reduce query evaluation costs (4); for \
       recursive cycles, capture rules [Ullm 84] handle the propagation — \
       subject to conditions on the definition (here: the recursion \
       orientation)"
    [
      "two chains n"; "|answer|"; "full+filter ms"; "magic right-lin ms";
      "magic left-lin ms"; "speedup (left)";
    ]
    rows;
  observed
    "with the left-linear rule the capture rule constructs only the tuples \
     reachable from the bound constant (the gap to the full fixpoint grows \
     with n); with the right-linear rule the magic set itself grows along \
     the chain, so little is saved — exactly the special-case sensitivity \
     the paper attributes to capture rules"

(* ------------------------------------------------------------------ *)
(* E5: mutual recursion *)

let exp_e5 () =
  let rows =
    List.map
      (fun depth ->
        let infront, ontop = Graph_gen.scene ~depth ~stack:3 in
        let make strategy =
          let db = Database.create ~strategy () in
          Database.declare db "Infront" (Constructor.infront_schema Value.TStr);
          Database.declare db "Ontop" (Constructor.ontop_schema Value.TStr);
          Database.set db "Infront" infront;
          Database.set db "Ontop" ontop;
          let ahead, above = Constructor.ahead_above () in
          Database.define_constructors db [ ahead; above ];
          db
        in
        let q =
          Ast.(Construct (Rel "Infront", "ahead", [ Arg_range (Rel "Ontop") ]))
        in
        let db_s = make Fixpoint.Seminaive in
        let ahead_rel, semi_ms = time (fun () -> Database.query db_s q) in
        let st = Option.get (Database.last_stats db_s) in
        let db_n = make Fixpoint.Naive in
        let ahead_naive, naive_ms = time (fun () -> Database.query db_n q) in
        assert (Relation.equal ahead_rel ahead_naive);
        [
          string_of_int depth;
          string_of_int (Relation.cardinal ahead_rel);
          string_of_int st.Fixpoint.applications;
          string_of_int st.Fixpoint.rounds;
          ms semi_ms;
          ms naive_ms;
        ])
      [ 8; 16; 32; 48 ]
  in
  print_table
    ~title:"E5: mutually recursive constructors ahead/above (3.1, 3.2)"
    ~claim:
      "the values of mutually recursive constructed relations are the \
       limits of mutually defined sequences, computed by one simultaneous \
       fixpoint over the system of applications (3.2)"
    [
      "scene depth"; "|ahead|"; "applications"; "rounds"; "semi-naive ms";
      "naive ms";
    ]
    rows;
  observed
    "one run discovers both applications (ahead and above instances) and \
     iterates them jointly; both strategies converge to the same limit, \
     semi-naive cheaper"

(* ------------------------------------------------------------------ *)
(* E6: constructors = function-free Horn clauses (lemma 3.4) *)

let exp_e6 () =
  let rows =
    List.map
      (fun (name, edges) ->
        let db = tc_db edges in
        let (con_result, _), con_ms = time (fun () -> run_tc db) in
        let program, query_pred =
          Dc_datalog.Translate.of_application
            (Dc_datalog.Translate.context (Database.typecheck_env db))
            tc_query
        in
        let horn, horn_ms =
          time (fun () ->
              Dc_datalog.Seminaive.query program
                (Dc_datalog.Translate.edb
                   (Snapshot.get (Database.snapshot db))
                   program)
                query_pred)
        in
        let equal =
          Dc_datalog.Facts.TS.equal horn
            (Relation.fold Dc_datalog.Facts.TS.add con_result
               Dc_datalog.Facts.TS.empty)
        in
        [
          name;
          string_of_int (Relation.cardinal edges);
          string_of_int (Relation.cardinal con_result);
          string_of_bool equal;
          ms con_ms;
          ms horn_ms;
        ])
      [
        ("random 60/90", Graph_gen.random_graph ~seed:7 ~nodes:60 ~edges:90);
        ("random 80/160", Graph_gen.random_graph ~seed:9 ~nodes:80 ~edges:160);
        ("chain 100", Graph_gen.chain 100);
        ("cycle 60", Graph_gen.cycle 60);
      ]
  in
  print_table
    ~title:"E6: constructor mechanism = function-free Horn clauses (3.4)"
    ~claim:
      "the constructor mechanism is as powerful as function-free PROLOG \
       without cut, fail, and negation: the translated Horn program \
       computes the same relation"
    [
      "workload"; "|edges|"; "|result|"; "equal"; "constructor ms";
      "Horn (semi-naive) ms";
    ]
    rows;
  observed
    "results agree on every workload; both are set-oriented bottom-up \
     computations with comparable cost"

(* ------------------------------------------------------------------ *)
(* E7: logical vs physical access paths *)

let exp_e7 () =
  let edges = Graph_gen.random_graph ~seed:3 ~nodes:500 ~edges:4000 in
  let sel =
    {
      Defs.sel_name = "from";
      sel_formal = "Rel";
      sel_formal_schema = Graph_gen.edge_schema;
      sel_params = [ Defs.Scalar_param ("Obj", Value.TStr) ];
      sel_var = "r";
      sel_pred = Ast.(eq (field "r" "src") (Param "Obj"));
    }
  in
  let env = Eval.make_env [ ("Edge", edges) ] in
  let logical = Dc_compile.Access_path.Logical.create env sel edges in
  let keys k = List.init k (fun i -> [ Eval.V_scalar (Value.Str (Fmt.str "n%d" (i mod 500))) ]) in
  let rows =
    List.map
      (fun k ->
        let ks = keys k in
        let (), logical_ms =
          time (fun () ->
              List.iter
                (fun args -> ignore (Dc_compile.Access_path.Logical.apply logical args))
                ks)
        in
        let physical, build_ms =
          time (fun () -> Dc_compile.Access_path.Physical.build sel edges)
        in
        let (), lookup_ms =
          time (fun () ->
              List.iter
                (fun args ->
                  ignore (Dc_compile.Access_path.Physical.apply physical args))
                ks)
        in
        [
          string_of_int k;
          ms logical_ms;
          ms build_ms;
          ms lookup_ms;
          ms (build_ms +. lookup_ms);
          (if logical_ms < build_ms +. lookup_ms then "logical" else "physical");
        ])
      [ 1; 10; 100; 1000 ]
  in
  print_table
    ~title:"E7: logical vs physical access paths for parameterized selectors (4)"
    ~claim:
      "a physical access path materializes and partitions the relation by \
       the parameter values; it would be generated only in case of heavy \
       query usage (4)"
    [
      "lookups"; "logical total ms"; "physical build ms";
      "physical lookups ms"; "physical total ms"; "winner";
    ]
    rows;
  observed
    "recomputing the filter wins for one-shot use; the materialized \
     partition amortizes its build cost under repeated use, exactly the \
     paper's 'heavy query usage' condition"

(* ------------------------------------------------------------------ *)
(* E8: positivity and non-monotone definitions *)

let exp_e8 () =
  let check def =
    match Positivity.check_program [ def ] with
    | Ok () -> "accepted"
    | Error _ -> "REJECTED"
  in
  let evaluate (def : Defs.constructor_def) base_rel base_name =
    let db = Database.create ~check_positivity:false () in
    Database.declare db base_name (Relation.schema base_rel);
    Database.set db base_name base_rel;
    Database.define_constructor db def;
    match
      Database.query db Ast.(Construct (Rel base_name, def.Defs.con_name, []))
    with
    | r -> Fmt.str "converges (%d tuples)" (Relation.cardinal r)
    | exception Fixpoint.Divergence _ -> "oscillation detected"
  in
  let str_schema = Schema.make [ ("x", Value.TStr) ] in
  let strs =
    Relation.of_list str_schema
      [ Tuple.make1 (Value.Str "a"); Tuple.make1 (Value.Str "b") ]
  in
  let card_schema = Schema.make [ ("number", Value.TInt) ] in
  let cards =
    Relation.of_list card_schema
      (List.init 7 (fun i -> Tuple.make1 (Value.Int i)))
  in
  let tc = Constructor.transitive_closure () in
  let nonsense = Constructor.nonsense () in
  let strange = Constructor.strange () in
  let rows =
    [
      [ "tc (positive)"; check tc;
        (let db = tc_db (Graph_gen.chain 4) in
         Fmt.str "converges (%d tuples)" (Relation.cardinal (Database.query db tc_query))) ];
      [ "nonsense (3.3)"; check nonsense; evaluate nonsense strs "R" ];
      [ "strange [Hehn 84]"; check strange; evaluate strange cards "Baserel" ];
    ]
  in
  print_table
    ~title:"E8: the positivity constraint and non-monotone recursion (3.3)"
    ~claim:
      "the DBPL compiler accepts only constructors satisfying the \
       positivity constraint; 'nonsense' has no limit (the iteration \
       oscillates), while 'strange' is non-monotone yet its iteration \
       converges to {0,2,4,6} — it is rejected anyway"
    [ "definition"; "static check"; "unchecked evaluation" ]
    rows;
  observed
    "static positivity rejects both non-monotone definitions; the runtime \
     fuse identifies the period-2 oscillation of 'nonsense'; 'strange' \
     converges to 4 tuples exactly as the paper computes"

(* ------------------------------------------------------------------ *)
(* E9: typed relational checks *)

let exp_e9 () =
  let rows =
    List.map
      (fun n ->
        let schema =
          Schema.make ~key:[ "id" ] [ ("id", Value.TInt); ("v", Value.TInt) ]
        in
        let tuples =
          List.init n (fun i -> Tuple.make2 (Value.Int i) (Value.Int (i * 7)))
        in
        let _, keyed_ms = time (fun () -> Relation.of_list schema tuples) in
        let unkeyed = Schema.make [ ("id", Value.TInt); ("v", Value.TInt) ] in
        let _, raw_ms = time (fun () -> Relation.of_list unkeyed tuples) in
        (* referential check through the refint selector pattern (2.3) *)
        let edges = Graph_gen.chain n in
        let db = Database.create () in
        Database.declare db "Edge" Graph_gen.edge_schema;
        Database.set db "Edge" edges;
        Database.declare db "Closure" Graph_gen.edge_schema;
        Database.define_selector db
          {
            Defs.sel_name = "endpoints_exist";
            sel_formal = "Rel";
            sel_formal_schema = Graph_gen.edge_schema;
            sel_params = [];
            sel_var = "r";
            sel_pred =
              Ast.(
                Some_in
                  ( "e1",
                    Rel "Edge",
                    conj
                      (disj
                         (eq (field "r" "src") (field "e1" "src"))
                         (eq (field "r" "src") (field "e1" "dst")))
                      (Some_in
                         ( "e2",
                           Rel "Edge",
                           disj
                             (eq (field "r" "dst") (field "e2" "src"))
                             (eq (field "r" "dst") (field "e2" "dst")) )) ));
          };
        let (), guarded_ms =
          time (fun () ->
              Database.assign_selected db "Closure" ~selector:"endpoints_exist"
                ~args:[] Ast.(Rel "Edge"))
        in
        [
          string_of_int n;
          ms raw_ms;
          ms keyed_ms;
          ms guarded_ms;
        ])
      [ 100; 400; 1600 ]
  in
  print_table
    ~title:"E9: run-time cost of the generated type checks (2.2, 2.3)"
    ~claim:
      "the relational type checker performs a key-uniqueness test on every \
       assignment, and selector-guarded assignment evaluates the selection \
       predicate over the whole right-hand side — DBPL makes these checks \
       explicit, uniform, and optimizable"
    [ "tuples"; "set build ms"; "+ key check ms"; "+ referential check ms" ]
    rows;
  observed
    "key checking adds modest per-tuple cost; the quantified referential \
     predicate dominates, motivating the paper's selector factoring (one \
     uniform place for the optimizer to attack)"

(* ------------------------------------------------------------------ *)
(* E10: incremental maintenance of materialized constructed relations *)

(* Tuples the maintenance pipeline touched since the last reset: the
   phase totals of every Ivm report. *)
let ivm_touched () =
  List.fold_left
    (fun n (rp : Dc_ivm.Ivm.report) ->
      List.fold_left (fun n (ph : Dc_ivm.Ivm.phase) -> n + ph.ph_tuples) n rp.rp_phases)
    0 (Dc_ivm.Ivm.reports ())

let exp_e10 () =
  (* the left-linear closure as Horn clauses: the from-scratch baseline *)
  let left_tc =
    Dc_datalog.Syntax.
      [
        rule (atom "path" [ var "X"; var "Y" ]) [ Pos (atom "edge" [ var "X"; var "Y" ]) ];
        rule
          (atom "path" [ var "X"; var "Z" ])
          [
            Pos (atom "path" [ var "X"; var "Y" ]);
            Pos (atom "edge" [ var "Y"; var "Z" ]);
          ];
      ]
  in
  let rows =
    List.map
      (fun (nodes, edges) ->
        let base = Graph_gen.random_graph ~seed:5 ~nodes ~edges in
        let extra = Graph_gen.random_graph ~seed:77 ~nodes ~edges:8 in
        let fresh =
          List.filter (fun t -> not (Relation.mem t base)) (Relation.to_list extra)
        in
        (* left-linear recursion: the delta propagates forward *)
        let db = tc_db ~linear:`Left base in
        let view =
          Dc_ivm.Ivm.materialize db ~constructor:"tc" ~base:"Edge" ~args:[]
        in
        let closure0 = Dc_ivm.Ivm.cardinal view in
        Dc_ivm.Ivm.reset_reports ();
        let (), incr_ms = time (fun () -> Database.insert_all db "Edge" fresh) in
        let incr_derived = ivm_touched () in
        let full_stats = Dc_datalog.Seminaive.fresh_stats () in
        let _, full_ms =
          time (fun () ->
              Dc_datalog.Seminaive.run ~stats:full_stats left_tc
                (edb_of (Database.get db "Edge")))
        in
        [
          Fmt.str "%d/%d +%d" nodes edges (List.length fresh);
          string_of_int closure0;
          ms incr_ms;
          string_of_int incr_derived;
          ms full_ms;
          string_of_int full_stats.derivations;
          Fmt.str "%.1fx" (full_ms /. max 0.001 incr_ms);
        ])
      [ (60, 120); (120, 240); (240, 480) ]
  in
  print_table
    ~title:
      "E10: incremental maintenance of materialized constructed relations \
       (4, [ShTZ 84])"
    ~claim:
      "physical access paths over constructed relations must be maintained \
       under updates; the paper defers to [ShTZ 84] — a maintained view \
       (Ivm: a closure re-traversed from the sources the insertion \
       affects) handles only the consequences of the inserted tuples, vs a \
       from-scratch semi-naive run"
    [
      "graph +ins"; "|tc|"; "incremental ms"; "incr derived"; "recompute ms";
      "full derived"; "speedup";
    ]
    rows;
  observed
    "maintenance cost tracks the sources the insertion affects, not the \
     size of the closure: on these random graphs most sources reach an \
     inserted edge, so the view touches about half the tuples a \
     from-scratch run derives, in a small fraction of its time"

(* ------------------------------------------------------------------ *)
(* E12: the §3.4 design-space comparison — the six alternatives vs the
   constructor approach *)

let exp_e12 () =
  let edges = Graph_gen.random_graph ~seed:21 ~nodes:120 ~edges:220 in
  let reference = Algebra.transitive_closure edges in
  let check r = assert (Relation.equal r reference) in
  let timed name note f =
    let r, t = time f in
    check r;
    [ name; ms t; note ]
  in
  let rows =
    [
      timed "1. program iteration (3.1 loop)"
        "opaque to the optimizer; naive re-evaluation"
        (fun () -> Alternatives.program_iteration edges);
      (let (), t =
         time (fun () ->
             (* answer 200 membership questions tuple-at-a-time *)
             for i = 0 to 199 do
               ignore
                 (Alternatives.membership_function edges
                    (Graph_gen.node (i mod 120))
                    (Graph_gen.node ((i * 7) mod 120)))
             done)
       in
       [ "2a. recursive boolean function"; ms t;
         "200 membership tests, re-traversing each time" ]);
      timed "2b/5. recursive relation function (3.4 listing)"
        "'functions are too general to be optimized'"
        (fun () -> Alternatives.recursive_function edges);
      timed "3. specialized TC operator (QBE/QUEL*)"
        "efficient but closed to other recursions"
        (fun () -> Alternatives.specialized_operator edges);
      timed "4. equational definition (lfp combinator)"
        "declarative; still whole-expression iteration"
        (fun () -> Alternatives.equational edges);
      (let edb = edb_of edges in
       let r, t =
         time (fun () ->
             Dc_datalog.Facts.to_relation Graph_gen.edge_schema
               (Dc_datalog.Facts.singleton_set "path"
                  (Dc_datalog.Seminaive.query tc_program edb "path"))
               "path")
       in
       check r;
       [ "6. logic programming (semi-naive Horn)"; ms t;
         "set-oriented bottom-up; PROLOG reading diverges on cycles" ]);
      (let db = tc_db edges in
       let r, t = time (fun () -> Database.query db tc_query) in
       check (Relation.with_schema Graph_gen.edge_schema r);
       [ "7. CONSTRUCTOR (this paper)"; ms t;
         "declarative, typed, recognized and optimized by the compiler" ]);
    ]
  in
  print_table
    ~title:"E12: the 3.4 design space — six alternatives vs constructors"
    ~claim:
      "program iteration and recursive functions are too general to \
       optimize; specialized operators are procedural and closed; \
       equational definitions and logic programming are close relatives; \
       constructors keep the declarative fixpoint semantics inside the \
       typed language where the compiler can recognize and optimize it"
    [ "alternative (3.4)"; "ms (random 120/220)"; "paper's assessment" ]
    rows;
  observed
    "every alternative computes the same closure; the loop/function forms \
     pay naive re-evaluation, the specialized operator and the constructor \
     pipeline are semi-naive — but only the constructor form is also a \
     first-class, typed, optimizable language object"

(* ------------------------------------------------------------------ *)
(* E11: ablation — what hash-index join scheduling buys the compiled plans *)

let exp_e11 () =
  let rows =
    List.map
      (fun (nodes, edges) ->
        let rel = Graph_gen.random_graph ~seed:13 ~nodes ~edges in
        let db = Database.create () in
        Database.declare db "Edge" Graph_gen.edge_schema;
        Database.set db "Edge" rel;
        Database.define_constructor db (Constructor.ahead_2 ());
        (* two-step pairs from a restricted source: a pushed, compiled
           two-way join *)
        let q =
          Ast.(
            Comp
              [
                branch
                  [ ("r", Construct (Rel "Edge", "ahead2", [])) ]
                  ~where:(eq (field "r" "head") (str "n1"));
              ])
        in
        let d = Dc_compile.Planner.plan (Database.typecheck_env db) q in
        let indexed, on_ms =
          time (fun () ->
              Dc_compile.Planner.execute ~use_indexes:true
                (Database.eval_env db) d)
        in
        let scanned, off_ms =
          time (fun () ->
              Dc_compile.Planner.execute ~use_indexes:false
                (Database.eval_env db) d)
        in
        assert (Relation.equal indexed scanned);
        [
          Fmt.str "%d/%d" nodes edges;
          string_of_int (Relation.cardinal indexed);
          ms on_ms;
          ms off_ms;
          Fmt.str "%.1fx" (off_ms /. max 0.001 on_ms);
        ])
      [ (100, 600); (200, 2400); (400, 9600) ]
  in
  print_table
    ~title:
      "E11: ablation — indexed pipelines vs naive scans in compiled plans \
       (4, [JaKo 83])"
    ~claim:
      "the range-nested, set-oriented evaluation the paper builds on \
       ([JaKo 83]) derives its efficiency from evaluating quantified join \
       terms through restricted ranges rather than per-tuple predicate \
       tests; disabling the index access path in the same plan isolates \
       that effect"
    [ "graph"; "|answer|"; "indexed ms"; "scans ms"; "advantage" ]
    rows;
  observed
    "identical plans, identical answers; the hash-index access path wins \
     by a factor that grows with the relation size (the join inner loop \
     is no longer linear in the base)"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment *)

let bechamel_tests () =
  let open Bechamel in
  let chain32 = Graph_gen.chain 32 in
  let layered = Graph_gen.layered ~layers:5 ~width:3 in
  let two_chains = Graph_gen.two_chains 48 in
  let infront, ontop = Graph_gen.scene ~depth:12 ~stack:2 in
  let random = Graph_gen.random_graph ~seed:7 ~nodes:40 ~edges:70 in
  let restricted = tc_point "n1" in
  let sel =
    {
      Defs.sel_name = "from";
      sel_formal = "Rel";
      sel_formal_schema = Graph_gen.edge_schema;
      sel_params = [ Defs.Scalar_param ("Obj", Value.TStr) ];
      sel_var = "r";
      sel_pred = Ast.(eq (field "r" "src") (Param "Obj"));
    }
  in
  let physical = Dc_compile.Access_path.Physical.build sel two_chains in
  Test.make_grouped ~name:"data-constructors"
    [
      Test.make ~name:"e1-tc-rounds (chain 32, semi-naive)"
        (Staged.stage (fun () -> run_tc (tc_db chain32)));
      Test.make ~name:"e2-bottom-up (layered 5x3)"
        (Staged.stage (fun () -> run_tc (tc_db layered)));
      Test.make ~name:"e2-top-down-SLD (layered 5x3)"
        (Staged.stage (fun () ->
             Dc_datalog.Topdown.query tc_program (edb_of layered) "path" 2));
      Test.make ~name:"e3-naive (chain 32)"
        (Staged.stage (fun () ->
             run_tc (tc_db ~strategy:Fixpoint.Naive chain32)));
      Test.make ~name:"e3-seminaive (chain 32)"
        (Staged.stage (fun () ->
             run_tc (tc_db ~strategy:Fixpoint.Seminaive chain32)));
      Test.make ~name:"e4-full-then-filter (two chains 48)"
        (Staged.stage (fun () ->
             Database.query (tc_db two_chains) restricted));
      Test.make ~name:"e4-magic-left-linear (two chains 48)"
        (Staged.stage (fun () ->
             magic_tc (tc_db ~linear:`Left two_chains) "n1"));
      Test.make ~name:"e5-mutual-ahead-above (scene 12x2)"
        (Staged.stage (fun () ->
             let db = Database.create () in
             Database.declare db "Infront" (Constructor.infront_schema Value.TStr);
             Database.declare db "Ontop" (Constructor.ontop_schema Value.TStr);
             Database.set db "Infront" infront;
             Database.set db "Ontop" ontop;
             let ahead, above = Constructor.ahead_above () in
             Database.define_constructors db [ ahead; above ];
             Database.query db
               Ast.(Construct (Rel "Infront", "ahead", [ Arg_range (Rel "Ontop") ]))));
      Test.make ~name:"e6-horn-seminaive (random 40/70)"
        (Staged.stage (fun () ->
             Dc_datalog.Seminaive.query tc_program (edb_of random) "path"));
      Test.make ~name:"e7-logical-lookup"
        (Staged.stage (fun () ->
             let env = Eval.make_env [ ("Edge", two_chains) ] in
             let logical = Dc_compile.Access_path.Logical.create env sel two_chains in
             Dc_compile.Access_path.Logical.apply logical
               [ Eval.V_scalar (Value.Str "n7") ]));
      Test.make ~name:"e7-physical-lookup"
        (Staged.stage (fun () ->
             Dc_compile.Access_path.Physical.apply physical
               [ Eval.V_scalar (Value.Str "n7") ]));
      Test.make ~name:"e8-positivity-check"
        (Staged.stage (fun () ->
             Positivity.check_program
               [ Constructor.transitive_closure (); Constructor.nonsense () ]));
      Test.make ~name:"e9-keyed-build (400 tuples)"
        (Staged.stage (fun () ->
             let schema =
               Schema.make ~key:[ "id" ] [ ("id", Value.TInt); ("v", Value.TInt) ]
             in
             Relation.of_list schema
               (List.init 400 (fun i ->
                    Tuple.make2 (Value.Int i) (Value.Int (i * 7))))));
      Test.make ~name:"e10-incremental-insert (random 60/120)"
        (Staged.stage (fun () ->
             let base = Graph_gen.random_graph ~seed:5 ~nodes:60 ~edges:120 in
             let db = tc_db ~linear:`Left base in
             ignore
               (Dc_ivm.Ivm.materialize db ~constructor:"tc" ~base:"Edge"
                  ~args:[]);
             Database.insert db "Edge"
               (Tuple.make2 (Graph_gen.node 0) (Graph_gen.node 59))));
      Test.make ~name:"e2c-tabled (layered 5x3)"
        (Staged.stage (fun () ->
             Dc_datalog.Tabled.query tc_program (edb_of layered) "path" 2));
      (let db = tc_db (Graph_gen.random_graph ~seed:13 ~nodes:100 ~edges:600) in
       Database.define_constructor db (Constructor.ahead_2 ());
       let q =
         Ast.(
           Comp
             [
               branch
                 [ ("r", Construct (Rel "Edge", "ahead2", [])) ]
                 ~where:(eq (field "r" "head") (str "n1"));
             ])
       in
       let d = Dc_compile.Planner.plan (Database.typecheck_env db) q in
       Test.make ~name:"e11-indexed-plan (random 100/600)"
         (Staged.stage (fun () ->
              Dc_compile.Planner.execute (Database.eval_env db) d)));
    ]

let run_bechamel () =
  let open Bechamel in
  Fmt.pr "@.## Bechamel micro-benchmarks (monotonic clock, ns/run)@.@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] (bechamel_tests ()) in
  let results = Analyze.all ols instance raw in
  let entries =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] ->
        let pretty =
          if est > 1e6 then Fmt.str "%10.3f ms" (est /. 1e6)
          else if est > 1e3 then Fmt.str "%10.3f us" (est /. 1e3)
          else Fmt.str "%10.0f ns" est
        in
        Fmt.pr "  %-55s %s@." name pretty
      | _ -> Fmt.pr "  %-55s (no estimate)@." name)
    entries

(* ------------------------------------------------------------------ *)
(* Measured cells.  Every cell the modes below report is sampled
   [samples] times, interleaved with the other cells of its section
   (A B C A B C ...) so drift over a run spreads across cells instead of
   landing on one, and summarized as the median and interquartile range
   of its samples. *)

module Json = Bench_core.Json
module Stats = Bench_core.Stats

let samples = 5

type summary = { median_ms : float; iqr_ms : float }

(* [interleaved runs]: each run returns its result and the milliseconds
   it measured (a cell may time only part of its work, such as an update
   stream without its setup).  Returns each run's last result and the
   summary of its samples, in order. *)
let interleaved runs =
  let n = List.length runs in
  let last = Array.make n None and times = Array.make n [] in
  for _ = 1 to samples do
    List.iteri
      (fun i run ->
        let r, t = run () in
        last.(i) <- Some r;
        times.(i) <- t :: times.(i))
      runs
  done;
  List.init n (fun i ->
      let q1, _, q3 = Stats.quartiles times.(i) in
      ( Option.get last.(i),
        { median_ms = Stats.median times.(i); iqr_ms = q3 -. q1 } ))

let pp_summary ppf s = Fmt.pf ppf "%sms (iqr %s)" (ms s.median_ms) (ms s.iqr_ms)

(* JSON numbers: timings to the microsecond, counts exact *)
let num x = Json.Num (Float.round (x *. 1000.) /. 1000.)
let count n = Json.Num (float_of_int n)

let summary_fields prefix s =
  [ (prefix ^ "median_ms", num s.median_ms); (prefix ^ "iqr_ms", num s.iqr_ms) ]

(* ------------------------------------------------------------------ *)
(* Recursive experiments: wall-clock time, fixpoint rounds, tuples
   produced and — for the fixpoint cells (E3, E5, E6) — derivations
   ([Fixpoint] [tuples_derived], [Seminaive] [derivations]), so
   wall / derived compares the two engines' cost per derivation.  The
   workloads are deterministic, so successive BENCH snapshots are
   directly comparable. *)

type json_record = {
  jr_name : string;
  jr_wall : summary;
  jr_rounds : int;
  jr_tuples : int;
  jr_derived : int option;
}

let fixpoint (st : Fixpoint.stats) =
  (st.rounds, st.tuples_produced, Some st.tuples_derived)

let closure_cell ?linear strategy n () =
  let _, st = run_tc (tc_db ~strategy ?linear (Graph_gen.chain n)) in
  fixpoint st

(* random Horn workload through the semi-naive Datalog engine *)
let horn_cell ~seed ~nodes ~edges () =
  let edges = Graph_gen.random_graph ~seed ~nodes ~edges in
  let stats = Dc_datalog.Seminaive.fresh_stats () in
  let result =
    Dc_datalog.Seminaive.query ~stats tc_program (edb_of edges) "path"
  in
  ( stats.Dc_datalog.Seminaive.rounds,
    Dc_datalog.Facts.TS.cardinal result,
    Some stats.Dc_datalog.Seminaive.derivations )

(* The §3.1 scene of [depth] over stacks of 3, with ahead/above defined. *)
let scene_db depth =
  let infront, ontop = Graph_gen.scene ~depth ~stack:3 in
  let db = Database.create ~strategy:Fixpoint.Seminaive () in
  Database.declare db "Infront" (Constructor.infront_schema Value.TStr);
  Database.declare db "Ontop" (Constructor.ontop_schema Value.TStr);
  Database.set db "Infront" infront;
  Database.set db "Ontop" ontop;
  let ahead, above = Constructor.ahead_above () in
  Database.define_constructors db [ ahead; above ];
  db

let scene_query =
  Ast.(Construct (Rel "Infront", "ahead", [ Arg_range (Rel "Ontop") ]))

(* mutually recursive ahead/above system, evaluated by the engine *)
let scene_cell depth () =
  let db = scene_db depth in
  ignore (Database.query db scene_query);
  fixpoint (Option.get (Database.last_stats db))

(* magic-sets capture rule on the left-linear rule (Datalog path) *)
let magic_cell n () =
  let db = tc_db ~linear:`Left (Graph_gen.two_chains n) in
  (0, Relation.cardinal (magic_tc db "n1"), None)

let json_experiments ?(only = []) () =
  let cells =
    List.filter
      (fun (name, _) -> only = [] || List.mem name only)
      [
        ("e3_chain_seminaive_512", closure_cell Fixpoint.Seminaive 512);
        (* naive re-evaluation on a shorter chain (cubic work) *)
        ("e3_chain_naive_128", closure_cell Fixpoint.Naive 128);
        ("e6_random_horn_200_500", horn_cell ~seed:7 ~nodes:200 ~edges:500);
        ("e5_mutual_scene_64", scene_cell 64);
        ("e5_mutual_scene_256", scene_cell 256);
        (* non-linear closure (path o path): joins delta against the big
           full value from both sides every round, the index-heaviest
           shape *)
        ( "e3_chain_nonlinear_256",
          closure_cell ~linear:`Non Fixpoint.Seminaive 256 );
        ("e6_random_horn_300_900", horn_cell ~seed:11 ~nodes:300 ~edges:900);
        ("e4_magic_left_256", magic_cell 256);
        ("e4_magic_left_512", magic_cell 512);
      ]
  in
  List.map2
    (fun (name, _) ((rounds, tuples, derived), wall) ->
      { jr_name = name; jr_wall = wall; jr_rounds = rounds; jr_tuples = tuples;
        jr_derived = derived })
    cells
    (interleaved (List.map (fun (_, f) () -> time f) cells))

let experiment_json r =
  Json.Obj
    ((("name", Json.Str r.jr_name) :: summary_fields "" r.jr_wall)
    @ [ ("rounds", count r.jr_rounds); ("tuples", count r.jr_tuples) ]
    @ match r.jr_derived with Some d -> [ ("derived", count d) ] | None -> [])

let print_records records =
  List.iter
    (fun r ->
      Fmt.pr "%-28s %10.2f ms  iqr=%-8.2f rounds=%-5d tuples=%d%a@." r.jr_name
        r.jr_wall.median_ms r.jr_wall.iqr_ms r.jr_rounds r.jr_tuples
        Fmt.(option (any " derived=" ++ int))
        r.jr_derived)
    records

(* ------------------------------------------------------------------ *)
(* Planned against direct: what a QUERY's plan buys on the 256-chain.
   The regular-system recogniser hands the non-linear [tcn] to the closure
   operator (planned, against the interpreter's non-linear fixpoint and
   against the right-linear [tc]'s), and the point closure
   {EACH r IN Edge{tc()}: r.src = "n0"} to one traversal from n0
   (against the interpreter's full closure then filter).  Planning is
   timed with the run, as a QUERY pays it.  E3 and E4 keep calling their
   engines directly. *)

(* Exits 1 unless a planned answer equals the interpreter's and both
   frame ([Wire.frame_rows], as a server frames a QUERY's answer) to the
   same bytes: a closure's answer is a run, the interpreter's a tree. *)
let same_answer name ~planned ~direct =
  if not (Relation.equal planned direct) then begin
    Fmt.epr "%s: planned (%d rows) <> direct (%d rows)@." name
      (Relation.cardinal planned) (Relation.cardinal direct);
    exit 1
  end;
  let frame = Dc_net.Wire.frame_rows ~version:1 in
  if not (String.equal (frame planned) (frame direct)) then begin
    Fmt.epr "%s: the planned answer's frame differs from the direct answer's@." name;
    exit 1
  end

type planned_record = {
  pl_name : string;
  pl_method : string;
  pl_planned : summary;
  pl_direct : summary;
  pl_reference : (string * summary) option;
      (* another direct query the planned one is compared with *)
}

let planned_records () =
  let db = tc_db (Graph_gen.chain 256) in
  Database.define_constructor db
    (Constructor.transitive_closure ~name:"tcn" ~linear:`Non ());
  let tcn = Ast.(Construct (Rel "Edge", "tcn", [])) in
  let point = tc_point "n0" in
  let decide q = Dc_compile.Planner.plan (Database.typecheck_env db) q in
  let planned q () =
    time (fun () ->
        Dc_compile.Planner.execute (Database.eval_env db) (decide q))
  in
  let direct q () = time (fun () -> Database.query db q) in
  match
    interleaved
      [ planned tcn; direct tcn; direct tc_query; planned point; direct point ]
  with
  | [ (tcn_p, tcn_pw); (tcn_d, tcn_dw); (_, tc_dw); (pt_p, pt_pw); (pt_d, pt_dw) ]
    ->
    List.iter
      (fun (what, planned, direct) ->
        same_answer (Fmt.str "planned_closure_256: %s" what) ~planned ~direct)
      [ ("tcn", tcn_p, tcn_d); ("point tc", pt_p, pt_d) ];
    let method_of q = Dc_compile.Planner.method_name (decide q).d_method in
    [
      {
        pl_name = "planned_closure_256_tcn";
        pl_method = method_of tcn;
        pl_planned = tcn_pw;
        pl_direct = tcn_dw;
        pl_reference = Some ("tc", tc_dw);
      };
      {
        pl_name = "planned_closure_256_point";
        pl_method = method_of point;
        pl_planned = pt_pw;
        pl_direct = pt_dw;
        pl_reference = None;
      };
    ]
  | _ -> assert false

(* A seeded strongly connected digraph: a cycle through a shuffled order
   of the nodes plus distinct random edges up to [edges]. *)
let strongly_connected ~seed ~nodes ~edges =
  let rng = Dc_workload.Rng.create seed in
  let order = Array.init nodes Fun.id in
  Dc_workload.Rng.shuffle rng order;
  let seen = Hashtbl.create (2 * edges) in
  List.iteri
    (fun i a -> Hashtbl.replace seen (a, order.((i + 1) mod nodes)) ())
    (Array.to_list order);
  while Hashtbl.length seen < edges do
    let a = Dc_workload.Rng.int rng nodes and b = Dc_workload.Rng.int rng nodes in
    if a <> b then Hashtbl.replace seen (a, b) ()
  done;
  Graph_gen.of_pairs (Hashtbl.fold (fun e () acc -> e :: acc) seen [])

(* [q] over [db] planned (planning timed with the run) against the
   interpreter, interleaved; exits 1 if the answers or their frames
   differ. *)
let planned_against_direct name db q =
  let decide () = Dc_compile.Planner.plan (Database.typecheck_env db) q in
  match
    interleaved
      [
        (fun () ->
          time (fun () ->
              Dc_compile.Planner.execute (Database.eval_env db) (decide ())));
        (fun () -> time (fun () -> Database.query db q));
      ]
  with
  | [ (planned, planned_w); (direct, direct_w) ] ->
    same_answer name ~planned ~direct;
    {
      pl_name = name;
      pl_method = Dc_compile.Planner.method_name (decide ()).d_method;
      pl_planned = planned_w;
      pl_direct = direct_w;
      pl_reference = None;
    }
  | _ -> assert false

(* servebench's [Rand{tc()}] shape: the closure of a strongly connected
   300-node, 900-edge digraph (90,000 rows), planned (the closure
   operator from every source) against the interpreter's fixpoint. *)
let planned_random_record () =
  planned_against_direct "planned_closure_random_300"
    (tc_db (strongly_connected ~seed:1 ~nodes:300 ~edges:900))
    tc_query

(* servebench's §3.1 scene: Infront{ahead(Ontop)} over the 256-deep
   scene (32,896 rows), planned (the traversal of the regular ahead/above
   system's automaton over Infront and Ontop) against the interpreter's
   mutual fixpoint. *)
let planned_scene_record () =
  planned_against_direct "planned_scene_256" (scene_db 256) scene_query

let planned_json r =
  Json.Obj
    ([ ("name", Json.Str r.pl_name); ("method", Json.Str r.pl_method) ]
    @ summary_fields "planned_" r.pl_planned
    @ summary_fields "direct_" r.pl_direct
    @
    match r.pl_reference with
    | Some (name, s) -> summary_fields (name ^ "_direct_") s
    | None -> [])

let print_planned records =
  List.iter
    (fun r ->
      Fmt.pr "%-26s planned (%s) %a, direct %a: %.1fx%a@." r.pl_name r.pl_method
        pp_summary r.pl_planned pp_summary r.pl_direct
        (r.pl_direct.median_ms /. max 0.001 r.pl_planned.median_ms)
        Fmt.(
          option (fun ppf (name, s) ->
              pf ppf "; %s direct %a, planned/%s %.2f" name pp_summary s name
                (r.pl_planned.median_ms /. max 0.001 s.median_ms)))
        r.pl_reference)
    records

(* ------------------------------------------------------------------ *)
(* Wire codec: a query result framed as the server frames it (from the
   relation, CRC included) and its payload decoded as the client decodes
   it.  Two results: the 90,000 rows over 300 labels of a closure over a
   strongly connected 300-node graph (servebench's [Rand{tc()}] shape),
   and a 3-row point read.  Each result is framed twice: from a tree, and
   from a run of the same rows (ranks over the sorted labels, built by
   [Relation.of_ranks_unchecked] as the closure operator builds its
   answer), as a served closure is framed.  Each
   sample times [reps] frames; the cells report per frame.  Exits 1 if
   the two frames differ by a byte or a decoded row list differs from the
   relation's. *)

module Wire = Dc_net.Wire

type codec_record = {
  cc_name : string;
  cc_rows : int;
  cc_bytes : int; (* the whole frame *)
  cc_encode : summary; (* ms per frame, from a tree *)
  cc_encode_run : summary; (* from a run, as a served closure is framed *)
  cc_decode : summary;
}

let codec_records () =
  let label i = Value.str (Fmt.str "n%d" i) in
  let schema = Schema.make [ ("a", Value.TStr); ("b", Value.TStr) ] in
  let per_frame reps f () =
    let (), wall =
      time (fun () ->
          for _ = 1 to reps do
            ignore (Sys.opaque_identity (f ()))
          done)
    in
    ((), wall /. float_of_int reps)
  in
  List.map
    (fun (name, labels, rows, reps) ->
      let rel =
        Relation.of_list schema
          (List.init rows (fun i ->
               Tuple.make2 (label (i / labels)) (label (i mod labels))))
      in
      let run =
        let tuples = Array.of_list (Relation.to_list rel) in
        let nodes = Array.init labels label in
        Array.sort Value.compare nodes;
        let rank = Hashtbl.create labels in
        Array.iteri (fun r v -> Hashtbl.replace rank v r) nodes;
        Relation.of_ranks_unchecked schema nodes
          (Array.init 2 (fun c -> Array.map (fun t -> Hashtbl.find rank (Tuple.get t c)) tuples))
      in
      let frame = Wire.frame_rows ~version:1 rel in
      if not (String.equal (Wire.frame_rows ~version:1 run) frame) then begin
        Fmt.epr "wire_codec %s: the run's frame differs from the tree's@." name;
        exit 1
      end;
      let payload =
        String.sub frame (String.length frame - Wire.frame_payload_length frame)
          (Wire.frame_payload_length frame)
      in
      (match Wire.decode_response payload with
      | Wire.Rows { tuples; _ }
        when List.equal Tuple.equal tuples (Relation.to_list rel) ->
        ()
      | _ ->
        Fmt.epr "wire_codec %s: the decoded rows differ from the relation's@."
          name;
        exit 1);
      match
        interleaved
          [
            per_frame reps (fun () -> Wire.frame_rows ~version:1 rel);
            per_frame reps (fun () -> Wire.frame_rows ~version:1 run);
            per_frame reps (fun () -> Wire.decode_response payload);
          ]
      with
      | [ ((), encode); ((), encode_run); ((), decode) ] ->
        {
          cc_name = name;
          cc_rows = rows;
          cc_bytes = String.length frame;
          cc_encode = encode;
          cc_encode_run = encode_run;
          cc_decode = decode;
        }
      | _ -> assert false)
    [ ("rows_90000_labels_300", 300, 90_000, 3); ("rows_3", 3, 3, 20_000) ]

let codec_json r =
  let us s = num (s.median_ms *. 1000.) and iqr s = num (s.iqr_ms *. 1000.) in
  Json.Obj
    [
      ("name", Json.Str r.cc_name);
      ("rows", count r.cc_rows);
      ("frame_bytes", count r.cc_bytes);
      ("bytes_per_row", num (float_of_int r.cc_bytes /. float_of_int r.cc_rows));
      ("encode_us", us r.cc_encode);
      ("encode_iqr_us", iqr r.cc_encode);
      ("encode_run_us", us r.cc_encode_run);
      ("encode_run_iqr_us", iqr r.cc_encode_run);
      ("decode_us", us r.cc_decode);
      ("decode_iqr_us", iqr r.cc_decode);
    ]

let print_codec records =
  List.iter
    (fun r ->
      Fmt.pr
        "wire_codec_%-22s %7.2f bytes/row  encode %9.1f us (iqr %.1f)  run \
         %9.1f us (iqr %.1f)  decode %9.1f us (iqr %.1f)@."
        r.cc_name
        (float_of_int r.cc_bytes /. float_of_int r.cc_rows)
        (r.cc_encode.median_ms *. 1000.)
        (r.cc_encode.iqr_ms *. 1000.)
        (r.cc_encode_run.median_ms *. 1000.)
        (r.cc_encode_run.iqr_ms *. 1000.)
        (r.cc_decode.median_ms *. 1000.)
        (r.cc_decode.iqr_ms *. 1000.))
    records

(* The two cheapest recursive experiments, the planned closure and scene
   cells and the wire codec cells — a seconds-long sanity pass (`make
   bench-smoke`) confirming the harness, the kernel, the planner and the
   Rows codec still run; exits 1 if a planned answer or its frame
   differs from the direct one, a decoded frame from its rows, or a run's
   frame from its tree's. *)
let run_smoke () =
  print_records
    (json_experiments ~only:[ "e5_mutual_scene_64"; "e4_magic_left_256" ] ());
  print_planned
    (planned_records () @ [ planned_random_record (); planned_scene_record () ]);
  print_codec (codec_records ())

(* ------------------------------------------------------------------ *)
(* Overhead gates: interleaved A/B of the same workloads with an
   instrument off (A) and on (B) — `guard-overhead` compares no guard
   (the shared never-tripping [Guard.none]) with an active guard of
   generous limits, `obs-overhead` metrics collection disabled with
   enabled.  One warm-up, then [ab_rounds] A B pairs, min over rounds on
   each side: interleaving keeps allocator and cache drift out of the
   comparison.  Each gate exits non-zero above a lenient CI bound (noise
   on shared runners dwarfs the real cost, which BENCH tracks more
   precisely). *)

let ab_rounds = 7

type ab = { ab_name : string; ab_off_ms : float; ab_on_ms : float }

let ab_pct r = (r.ab_on_ms -. r.ab_off_ms) /. r.ab_off_ms *. 100.0

(* the gates' workloads, each taking an optional guard *)
let overhead_workloads =
  [
    ( "e3_chain_seminaive_512",
      fun guard ->
        let db = tc_db ~strategy:Fixpoint.Seminaive (Graph_gen.chain 512) in
        ignore (Database.query ?guard db tc_query) );
    ( "e6_random_horn_200_500",
      fun guard ->
        let edges = Graph_gen.random_graph ~seed:7 ~nodes:200 ~edges:500 in
        ignore
          (Dc_datalog.Seminaive.query ?guard tc_program (edb_of edges) "path")
    );
  ]

let ab_records ~off ~on =
  List.map
    (fun (name, f) ->
      off f;
      (* warm-up *)
      let off_ms = ref infinity and on_ms = ref infinity in
      for _ = 1 to ab_rounds do
        let (), t_off = time (fun () -> off f) in
        let (), t_on = time (fun () -> on f) in
        off_ms := min !off_ms t_off;
        on_ms := min !on_ms t_on
      done;
      { ab_name = name; ab_off_ms = !off_ms; ab_on_ms = !on_ms })
    overhead_workloads

let print_ab ~off ~on records =
  List.iter
    (fun r ->
      Fmt.pr "%-28s %s=%sms %s=%sms overhead=%+.1f%%@." r.ab_name off
        (ms r.ab_off_ms) on (ms r.ab_on_ms) (ab_pct r))
    records

let ab_gate ~what ~bound overhead =
  if overhead > bound then begin
    Fmt.epr "%s overhead above bound@." what;
    exit 1
  end

let guard_overhead_bound = 15.0 (* percent; CI sanity bound, not the claim *)

let run_guard_overhead () =
  let module Guard = Dc_guard.Guard in
  let generous () =
    Guard.create ~rows:max_int ~rounds:max_int ~millis:86_400_000 ()
  in
  let records =
    ab_records ~off:(fun f -> f None) ~on:(fun f -> f (Some (generous ())))
  in
  print_ab ~off:"none" ~on:"guarded" records;
  let worst = List.fold_left (fun w r -> Float.max w (ab_pct r)) 0.0 records in
  Fmt.pr "worst overhead %+.1f%% (bound %.0f%%)@." worst guard_overhead_bound;
  ab_gate ~what:"guard" ~bound:guard_overhead_bound worst

let obs_overhead_bound = 10.0 (* percent; CI sanity bound, not the claim *)

(* The cost of the [Obs.on ()] checks plus the per-round clock reads and
   histogram updates (operator-level profiling is EXPLAIN ANALYZE only
   and never on this path). *)
let obs_overhead_records () =
  let module Obs = Dc_obs.Obs in
  let saved = Obs.on () in
  let with_metrics on f =
    Obs.set_enabled on;
    f None
  in
  let records = ab_records ~off:(with_metrics false) ~on:(with_metrics true) in
  Obs.set_enabled saved;
  records

(* Aggregate overhead: total enabled time vs total disabled time — the
   number the obs gate bounds and BENCH records. *)
let oo_aggregate records =
  let off = List.fold_left (fun a r -> a +. r.ab_off_ms) 0. records in
  let on = List.fold_left (fun a r -> a +. r.ab_on_ms) 0. records in
  (on -. off) /. off *. 100.0

let print_obs_overhead records =
  print_ab ~off:"off" ~on:"on" records;
  Fmt.pr "aggregate overhead %+.1f%% (bound %.0f%%)@." (oo_aggregate records)
    obs_overhead_bound

let run_obs_overhead () =
  let records = obs_overhead_records () in
  print_obs_overhead records;
  ab_gate ~what:"obs" ~bound:obs_overhead_bound (oo_aggregate records)

let obs_overhead_json records =
  Json.Obj
    [
      ( "workloads",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.Str r.ab_name); ("base_ms", num r.ab_off_ms);
                   ("metrics_ms", num r.ab_on_ms); ("overhead_pct", num (ab_pct r));
                 ])
             records) );
      ("aggregate_pct", num (oo_aggregate records));
    ]

(* ------------------------------------------------------------------ *)
(* IVM: maintained views vs recompute-per-update (the paper §4 remark
   "Maintenance for such access paths is discussed in [ShTZ 84]", now
   measurable).  One deterministic stream of single-edge inserts and
   deletes runs against (a) a materialized view kept live by the lib/ivm
   maintainer and (b) a database that refixpoints the view from scratch
   after every update.  Both sides end with the same extent; the ratio
   is the maintenance win for small deltas. *)

module Ivm = Dc_ivm.Ivm

type ivm_record = {
  ir_name : string;
  ir_route : string; (* the maintained view's plan ([Ivm.plan_kind]) *)
  ir_updates : int;
  ir_inserts : int; (* of the timed updates *)
  ir_deletes : int;
  ir_maintained : summary;
  ir_recompute : summary;
}

let ir_speedup r = r.ir_recompute.median_ms /. r.ir_maintained.median_ms

(* Apply one update and say which kind it was. *)
let insert db rel t =
  Database.insert db rel t;
  `Insert

let delete db rel t =
  Database.delete db rel t;
  `Delete

(* Pseudo-random pair [j] over [nodes] nodes that is not in [edges]. *)
let ivm_pair edges nodes j =
  let rng = Random.State.make [| j; nodes |] in
  let rec pick () =
    let t =
      Tuple.make2
        (Graph_gen.node (Random.State.int rng nodes))
        (Graph_gen.node (Random.State.int rng nodes))
    in
    if Relation.mem t edges then pick () else t
  in
  pick ()

(* Step 2j inserts pair j and step 2j+1 deletes it again, so every pair
   of steps is one INSERT and one DELETE and ends on the base edges.
   Steps -2 and -1 are the untimed warm-up pair. *)
let ivm_step ~edges ~nodes db i =
  let t = ivm_pair edges nodes (i asr 1) in
  if i land 1 = 0 then insert db "Edge" t else delete db "Edge" t

(* One update stream's two arms over fresh databases from [db]: each
   applies [warm] steps (-warm .. -1) untimed, then [step] [updates]
   times, reading the view's cardinality after every step; only those
   [updates] steps are timed.  An arm returns the final cardinality and
   the INSERTs and DELETEs it timed. *)
let view_stream ?(warm = 0) name ~updates ~db ~step ~constructor ~base ~query
    =
  let arm reader () =
    let db = db () in
    let read = reader db in
    for i = -warm to -1 do
      ignore (step db i)
    done;
    let card = ref 0 and inserts = ref 0 and deletes = ref 0 in
    let (), t =
      time (fun () ->
          for i = 0 to updates - 1 do
            (match step db i with
            | `Insert -> incr inserts
            | `Delete -> incr deletes);
            card := read ()
          done)
    in
    ((!card, !inserts, !deletes), t)
  in
  let route = ref "" in
  let maintained db =
    let view = Ivm.materialize db ~constructor ~base ~args:[] in
    route := Ivm.plan_kind view;
    fun () -> Ivm.cardinal view
  in
  let recompute db () = Relation.cardinal (Database.query db query) in
  (name, route, updates, arm maintained, arm recompute)

(* Interleave every stream's two arms; both arms must end on the same
   extent. *)
let view_records streams =
  let results =
    Array.of_list
      (interleaved (List.concat_map (fun (_, _, _, m, r) -> [ m; r ]) streams))
  in
  List.mapi
    (fun i (name, route, updates, _, _) ->
      let (mc, ins, del), mt = results.(2 * i)
      and (rc, _, _), rt = results.((2 * i) + 1) in
      if mc <> rc then
        Fmt.failwith "%s: maintained extent %d <> recomputed %d" name mc rc;
      { ir_name = name; ir_route = !route; ir_updates = updates; ir_inserts = ins;
        ir_deletes = del; ir_maintained = mt; ir_recompute = rt })
    streams

(* The untimed warm-up pair runs whatever a view does once, at its first
   update (DRed's derivation-count pass), so the timed stream measures
   maintenance alone. *)
let ivm_records () =
  let stream name ~edges ~nodes =
    view_stream ~warm:2 name ~updates:64
      ~db:(fun () -> tc_db edges)
      ~step:(ivm_step ~edges ~nodes)
      ~constructor:"tc" ~base:"Edge" ~query:tc_query
  in
  view_records
    [
      stream "ivm_tc_chain_128" ~edges:(Graph_gen.chain 128) ~nodes:129;
      stream "ivm_tc_random_96_192"
        ~edges:(Graph_gen.random_graph ~seed:5 ~nodes:96 ~edges:192)
        ~nodes:96;
    ]

let view_json r =
  Json.Obj
    ((("name", Json.Str r.ir_name) :: ("route", Json.Str r.ir_route)
      :: ("updates", count r.ir_updates)
      :: ("inserts", count r.ir_inserts) :: ("deletes", count r.ir_deletes)
      :: summary_fields "maintained_" r.ir_maintained)
    @ summary_fields "recompute_per_update_" r.ir_recompute
    @ [ ("speedup", num (ir_speedup r)) ])

let print_ivm records =
  List.iter
    (fun r ->
      Fmt.pr
        "%-24s %d updates (%d INSERT, %d DELETE): maintained=%a \
         recompute-per-update=%a speedup=%.1fx route=%s@."
        r.ir_name r.ir_updates r.ir_inserts r.ir_deletes pp_summary
        r.ir_maintained pp_summary r.ir_recompute (ir_speedup r) r.ir_route)
    records

(* Maintained INSERT and DELETE timed apart on view_updates' shape: the
   right-linear closure over 8 chains of 32 nodes with shortcuts, and
   bridges from an even chain's tail into an odd chain toggled in and
   out, so each write adds or removes 32 x 8 closure rows.  Each update
   is timed on its own, after one untimed toggle; the cell reports the
   median and IQR per update over every sample's updates. *)
type toggle_record = {
  tg_name : string;
  tg_route : string;
  tg_updates : int; (* of each kind, per sample *)
  tg_insert : summary;
  tg_delete : summary;
}

let bridge_toggles = 32

let toggle_record () =
  let edges, at = Graph_gen.chains_dag ~seed:5 ~chains:8 ~len:32 ~edges:384 in
  let bridge k =
    let a = 2 * (k mod 4) and b = (2 * ((k / 4) mod 4)) + 1 in
    Tuple.make2 (Graph_gen.node (at a 31)) (Graph_gen.node (at b 24))
  in
  let ins = ref [] and del = ref [] and route = ref "" in
  for _ = 1 to samples do
    let db = tc_db edges in
    let view = Ivm.materialize db ~constructor:"tc" ~base:"Edge" ~args:[] in
    route := Ivm.plan_kind view;
    let n0 = Ivm.cardinal view in
    Database.insert db "Edge" (bridge 0);
    Database.delete db "Edge" (bridge 0);
    for k = 0 to bridge_toggles - 1 do
      let t = bridge k in
      let (), ti = time (fun () -> Database.insert db "Edge" t) in
      if Ivm.cardinal view <> n0 + 256 then
        Fmt.failwith "bridge %d: %d closure rows after INSERT, expected %d" k
          (Ivm.cardinal view) (n0 + 256);
      let (), td = time (fun () -> Database.delete db "Edge" t) in
      if Ivm.cardinal view <> n0 then
        Fmt.failwith "bridge %d: %d closure rows after DELETE, expected %d" k
          (Ivm.cardinal view) n0;
      ins := ti :: !ins;
      del := td :: !del
    done
  done;
  let summary ts =
    let q1, _, q3 = Stats.quartiles ts in
    { median_ms = Stats.median ts; iqr_ms = q3 -. q1 }
  in
  {
    tg_name = "ivm_tc_bridges_8x32";
    tg_route = !route;
    tg_updates = bridge_toggles;
    tg_insert = summary !ins;
    tg_delete = summary !del;
  }

let toggle_json r =
  Json.Obj
    ([ ("name", Json.Str r.tg_name); ("route", Json.Str r.tg_route);
       ("updates", count r.tg_updates) ]
    @ summary_fields "insert_" r.tg_insert
    @ summary_fields "delete_" r.tg_delete)

let print_toggle r =
  Fmt.pr "%-24s %d bridge toggles: insert=%a/update delete=%a/update route=%s@."
    r.tg_name r.tg_updates pp_summary r.tg_insert pp_summary r.tg_delete
    r.tg_route

(* Fails when a toggle stream applied no DELETE (such a stream measures
   inserts only, and deletes go unmeasured) or when a closure cell's view
   is not maintained by traversal (the recogniser declined it, and the
   cell measures DRed instead). *)
let run_ivm () =
  let records = ivm_records () in
  print_ivm records;
  let toggle = toggle_record () in
  print_toggle toggle;
  let fail what = function
    | [] -> false
    | names ->
      Fmt.epr "FAIL: %s in %s@." what (String.concat ", " names);
      true
  in
  let no_delete =
    fail "no DELETE"
      (List.filter_map
         (fun r -> if r.ir_deletes = 0 then Some r.ir_name else None)
         records)
  and off_route =
    fail "not maintained by traversal"
      (List.filter_map
         (fun (name, route) ->
           if
             String.starts_with ~prefix:"ivm_tc_" name
             && not (String.starts_with ~prefix:"traversal" route)
           then Some name
           else None)
         ((toggle.tg_name, toggle.tg_route)
         :: List.map (fun r -> (r.ir_name, r.ir_route)) records))
  in
  if no_delete || off_route then exit 1

(* ------------------------------------------------------------------ *)
(* Aggregates (PR 10).  Two claims the BENCH "aggregates" section tracks:

   (a) premappability pays: recursive MIN evaluated semi-naively WITH
       per-group bounds (one accumulator per (src, dst), worse paths
       subsumed inside the fixpoint) vs the naive recompute that runs
       the same recursion unaggregated — accumulating every distinct
       path weight — and aggregates once at the end.  A weighted layered
       DAG keeps the unaggregated variant finite while giving it a wide
       weight lattice to enumerate.

   (b) incremental aggregate maintenance pays: a maintained SUM view
       (counting plan over raw contributions + per-group adjustment)
       vs a from-scratch recompute after every base update. *)

module Agg = Dc_agg.Agg

type agg_min_record = {
  am_name : string;
  am_bounded : summary;
  am_naive : summary;
  am_groups : int; (* result tuples: one bound per group *)
  am_raw : int; (* distinct path-weight tuples the bounds never enumerate *)
}

let am_speedup r = r.am_naive.median_ms /. r.am_bounded.median_ms

let sp_agg_program =
  Dc_datalog.Syntax.
    [
      rule
        (atom "sp" [ var "S"; var "D"; var "W" ])
        [ Pos (atom "edge" [ var "S"; var "D"; var "W" ]) ];
      rule
        (atom "sp" [ var "S"; var "D"; Binop (Ast.Add, var "W1", var "W2") ])
        [
          Pos (atom "sp" [ var "S"; var "M"; var "W1" ]);
          Pos (atom "edge" [ var "M"; var "D"; var "W2" ]);
        ];
    ]

let sp_spec = { Agg.group = [ 0; 1 ]; value = 2; op = Agg.Min }

(* complete bipartite between adjacent layers, uniform weights 1..max_w *)
let weighted_layered ~seed ~layers ~width ~max_w =
  let rng = Rng.create seed in
  let tuples = ref [] in
  for l = 0 to layers - 2 do
    for a = 0 to width - 1 do
      for b = 0 to width - 1 do
        tuples :=
          Tuple.of_list
            [
              Graph_gen.node ((l * width) + a);
              Graph_gen.node (((l + 1) * width) + b);
              Value.Int (1 + Rng.int rng max_w);
            ]
          :: !tuples
      done
    done
  done;
  Relation.of_list Graph_gen.weighted_edge_schema !tuples

(* DAGs only: the unaggregated arm must terminate, and on a cycle the
   path-weight lattice is unbounded (exactly what the bounds fix — but no
   baseline to compare against) *)
let random_weighted_dag ~seed ~nodes ~edges ~max_w =
  let rng = Rng.create seed in
  let seen = Hashtbl.create (2 * edges) in
  let tuples = ref [] in
  let guard = ref (100 * edges) in
  while Hashtbl.length seen < edges && !guard > 0 do
    decr guard;
    let a = Rng.int rng nodes and b = Rng.int rng nodes in
    let a, b = (min a b, max a b) in
    if a <> b && not (Hashtbl.mem seen (a, b)) then begin
      Hashtbl.replace seen (a, b) ();
      tuples :=
        Tuple.of_list
          [
            Graph_gen.node a; Graph_gen.node b; Value.Int (1 + Rng.int rng max_w);
          ]
        :: !tuples
    end
  done;
  Relation.of_list Graph_gen.weighted_edge_schema !tuples

let agg_min_records () =
  let module TS = Dc_datalog.Facts.TS in
  let datasets =
    [
      ("agg_min_layered_6x4", weighted_layered ~seed:11 ~layers:6 ~width:4 ~max_w:30);
      ("agg_min_dag_48_192", random_weighted_dag ~seed:12 ~nodes:48 ~edges:192 ~max_w:9);
    ]
  in
  let arms (_, rel) =
    let edb = edb_of rel in
    [
      (fun () ->
        time (fun () ->
            Dc_datalog.Seminaive.query ~aggs:[ ("sp", sp_spec) ] sp_agg_program
              edb "sp"));
      (fun () -> time (fun () -> Dc_datalog.Seminaive.query sp_agg_program edb "sp"));
    ]
  in
  let results = Array.of_list (interleaved (List.concat_map arms datasets)) in
  List.mapi
    (fun i (name, _) ->
      let bounded, bounded_t = results.(2 * i) and raw, naive_t = results.((2 * i) + 1) in
      let reference =
        List.fold_left
          (fun acc t -> TS.add t acc)
          TS.empty
          (Agg.aggregate sp_spec (TS.elements raw))
      in
      if not (TS.equal bounded reference) then
        Fmt.failwith
          "agg bench %s: bounded result (%d) <> aggregate of naive recompute \
           (%d)"
          name (TS.cardinal bounded) (TS.cardinal reference);
      {
        am_name = name;
        am_bounded = bounded_t;
        am_naive = naive_t;
        am_groups = TS.cardinal bounded;
        am_raw = TS.cardinal raw;
      })
    datasets

let agg_min_json r =
  Json.Obj
    ((("name", Json.Str r.am_name) :: summary_fields "bounded_" r.am_bounded)
    @ summary_fields "naive_" r.am_naive
    @ [
        ("speedup", num (am_speedup r)); ("groups", count r.am_groups);
        ("raw_tuples", count r.am_raw);
      ])

(* (b): SUM per source over a weighted edge relation, dst discriminating *)
let agg_view_src =
  {|TYPE wedge  = RELATION src, dst OF RECORD src, dst: STRING; w: INTEGER END;
    TYPE persrc = RELATION src OF RECORD src: STRING; v: INTEGER END;
    VAR E: wedge;
    CONSTRUCTOR total FOR Rel: wedge (): persrc;
    BEGIN <e.src, e.dst, SUM e.w> OF EACH e IN Rel: TRUE GROUP BY e.src
    END total;|}

let agg_view_query = Ast.(Construct (Rel "E", "total", []))

(* step [i]: toggle one deterministic pseudo-random weighted edge *)
let agg_view_step db i nodes =
  let s = Graph_gen.node (i mod nodes)
  and d = Graph_gen.node (((i * 7) + 3) mod nodes) in
  let existing =
    Relation.fold
      (fun t acc ->
        if Value.equal (Tuple.get t 0) s && Value.equal (Tuple.get t 1) d then
          Some t
        else acc)
      (Database.get db "E") None
  in
  match existing with
  | Some t -> delete db "E" t
  | None -> insert db "E" (Tuple.of_list [ s; d; Value.Int (1 + (i mod 9)) ])

let agg_view_db ~nodes ~edges =
  let db, _ = Dc_lang.Elaborate.run_string agg_view_src in
  Database.set db "E"
    (Graph_gen.random_weighted_graph ~seed:13 ~nodes ~edges ~max_w:9);
  db


let agg_view_records () =
  let stream name ~nodes ~edges =
    view_stream name ~updates:256
      ~db:(fun () -> agg_view_db ~nodes ~edges)
      ~step:(fun db i -> agg_view_step db i nodes)
      ~constructor:"total" ~base:"E" ~query:agg_view_query
  in
  view_records
    [
      stream "agg_sum_view_96_384" ~nodes:96 ~edges:384;
      stream "agg_sum_view_192_768" ~nodes:192 ~edges:768;
    ]

let print_agg (mins, views) =
  List.iter
    (fun r ->
      Fmt.pr
        "%-24s bounded=%a naive-recompute=%a speedup=%.1fx (%d groups vs %d \
         raw tuples)@."
        r.am_name pp_summary r.am_bounded pp_summary r.am_naive (am_speedup r)
        r.am_groups r.am_raw)
    mins;
  print_ivm views

let agg_records () = (agg_min_records (), agg_view_records ())

let run_agg () = print_agg (agg_records ())

(* ------------------------------------------------------------------ *)
(* Parallel scaling of the one engine that still shards its rounds, the
   constructor fixpoint, on its heaviest workload (the non-linear chain),
   run at P = 1, 2, 4 and the machine's recommended degree.  Degrees
   above the recommendation are dropped (except P = 1, always kept), so a
   single-core runner degrades to the sequential cell and the curve never
   fails — it just flattens.  Each cell's speedup is its median against
   the median of the P = 1 cell of the same workload.  Semi-naive Datalog
   rounds and view maintenance run on the calling domain at any degree,
   so they have no cells here. *)

module Par = Dc_par.Par

type par_record = {
  pr_name : string;
  pr_domains : int;
  pr_wall : summary;
  pr_speedup : float; (* vs this workload's P = 1 cell *)
}

let par_degrees () =
  let top = Domain.recommended_domain_count () in
  List.sort_uniq compare (List.filter (fun p -> p = 1 || p <= top) [ 1; 2; 4; top ])

let par_records () =
  let degrees = par_degrees () in
  let nonlinear () =
    ignore
      (run_tc
         (tc_db ~strategy:Fixpoint.Seminaive ~linear:`Non (Graph_gen.chain 256)))
  in
  let cells =
    List.concat_map
      (fun (name, f) -> List.map (fun p -> (name, p, f)) degrees)
      [ ("e3_chain_nonlinear_256", nonlinear) ]
  in
  let walls =
    List.map snd
      (interleaved
         (List.map (fun (_, p, f) () -> time (fun () -> Par.with_domains p f)) cells))
  in
  let measured = List.combine cells walls in
  List.map
    (fun ((name, p, _), wall) ->
      let base =
        List.find_map
          (fun ((n, q, _), w) -> if n = name && q = 1 then Some w else None)
          measured
      in
      {
        pr_name = name;
        pr_domains = p;
        pr_wall = wall;
        pr_speedup = (Option.get base).median_ms /. wall.median_ms;
      })
    measured

let par_json r =
  Json.Obj
    ((("name", Json.Str r.pr_name) :: ("domains", count r.pr_domains)
      :: summary_fields "" r.pr_wall)
    @ [ ("speedup", num r.pr_speedup) ])

let print_parallel records =
  List.iter
    (fun r ->
      Fmt.pr "%-28s P=%-2d %10.2f ms  iqr=%-8.2f speedup=%.2fx@." r.pr_name
        r.pr_domains r.pr_wall.median_ms r.pr_wall.iqr_ms r.pr_speedup)
    records

let run_parallel () = print_parallel (par_records ())

(* ------------------------------------------------------------------ *)
(* Served point reads: the statement cache.  servebench's point_reads
   statement (a two-hop point query) over its DAG (8 chains of 32 nodes
   with shortcuts, 384 edges), read by one server session in process:
   [uncached] makes the layer calls every read would make with no cache
   (parse, lower against the snapshot, plan, and run the decision on the
   pool domain), [cache_hit] is [Server.query_string] with the statement's
   shape cached.  Keys cycle through every node, so the literal varies
   from read to read.  Each sample times [serve_reads] reads; minor words
   are counted over the same reads. *)

module Server = Dc_server.Server

type serve_record = {
  sr_name : string;
  sr_wall : summary; (* per sample of [serve_reads] reads *)
  sr_words : float; (* minor words per read, last sample *)
}

let serve_reads = 2_000

let serve_per_read_us s = s.median_ms *. 1000. /. float_of_int serve_reads

(* servebench's point_reads data and statement *)
let point_read_db () =
  let schema = Constructor.binary_schema ~a:"a" ~b:"b" Value.TStr in
  let dag, _ = Graph_gen.chains_dag ~seed:1 ~chains:8 ~len:32 ~edges:384 in
  let db = Database.create () in
  Database.declare db "Edge" schema;
  Database.set db "Edge" (Relation.of_list schema (Relation.to_list dag));
  db

let point_read_text k =
  Printf.sprintf
    {|QUERY {<e.a, f.b> OF EACH e IN Edge, EACH f IN Edge: e.a = "n%d" AND e.b = f.a};|}
    (k mod 256)

let serve_records () =
  let db = point_read_db () in
  let srv = Server.create db in
  let s = Server.open_session srv in
  let env = Dc_lang.Elaborate.create db in
  let text = point_read_text in
  let uncached src =
    let snap = Database.snapshot db in
    match Dc_lang.Parser.parse src with
    | [ Dc_lang.Surface.D_query r ] ->
      let range =
        Dc_lang.Elaborate.with_snapshot env snap (fun () ->
            Dc_lang.Elaborate.lower_query env r)
      in
      Dc_par.Par.run (fun () ->
          ( Dc_compile.Planner.execute (Snapshot.eval_env snap)
              (Dc_compile.Planner.plan (Snapshot.typecheck_env snap) range),
            Snapshot.version snap ))
    | _ -> assert false
  in
  let cell read () =
    let w0 = Gc.minor_words () in
    let (), t =
      time (fun () ->
          for k = 1 to serve_reads do
            ignore (read (text k))
          done)
    in
    ((Gc.minor_words () -. w0) /. float_of_int serve_reads, t)
  in
  let cells =
    [ ("uncached", cell uncached); ("cache_hit", cell (Server.query_string s)) ]
  in
  let measured = interleaved (List.map snd cells) in
  Server.close_session s;
  Server.shutdown srv;
  List.map2
    (fun (name, _) (words, wall) ->
      { sr_name = "point_read_" ^ name; sr_wall = wall; sr_words = words })
    cells measured

let serve_json r =
  Json.Obj
    ((("name", Json.Str r.sr_name) :: ("reads", count serve_reads)
      :: summary_fields "" r.sr_wall)
    @ [ ("us_per_read", num (serve_per_read_us r.sr_wall));
        ("minor_words_per_read", num r.sr_words) ])

let print_serve records =
  List.iter
    (fun r ->
      Fmt.pr "%-26s %8.2f us/read  iqr=%.2f us  %8.1f minor words/read@."
        r.sr_name (serve_per_read_us r.sr_wall)
        (r.sr_wall.iqr_ms *. 1000. /. float_of_int serve_reads)
        r.sr_words)
    records

let run_serve () = print_serve (serve_records ())

(* ------------------------------------------------------------------ *)
(* Wire round trips: the same point read as a [Query] frame to an
   in-process listener, over loopback TCP and over a Unix socket — the
   statement cache's hit path plus the socket round trip and both
   frame codecs.  Each sample times [wire_reads] round trips on one
   connection; the cells interleave. *)

module Net = Dc_net.Net

let wire_reads = 2_000

let wire_records () =
  let srv = Server.create (point_read_db ()) in
  let dir = Filename.temp_dir "dc_wire" "" in
  let sock = Filename.concat dir "bench.sock" in
  let tcp = Net.listen srv (Net.Tcp ("127.0.0.1", 0)) in
  let unix = Net.listen srv (Net.Unix_sock sock) in
  let clients =
    [
      ("tcp", Net.Client.connect (Net.Tcp ("127.0.0.1", Net.bound_port tcp)));
      ("unix", Net.Client.connect (Net.Unix_sock sock));
    ]
  in
  let cell c () =
    (* warm the statement cache, so every sample times hits *)
    ignore (Net.Client.query c (point_read_text 0));
    time (fun () ->
        for k = 1 to wire_reads do
          ignore (Net.Client.query c (point_read_text k))
        done)
  in
  let measured = interleaved (List.map (fun (_, c) -> cell c) clients) in
  List.iter (fun (_, c) -> Net.Client.close c) clients;
  Net.stop tcp;
  Net.stop unix;
  Server.shutdown srv;
  (try Sys.rmdir dir with Sys_error _ -> ());
  List.map2
    (fun (name, _) ((), wall) -> ("point_query_" ^ name, wall))
    clients measured

let wire_us ms = ms *. 1000. /. float_of_int wire_reads

let wire_json (name, wall) =
  Json.Obj
    ((("name", Json.Str name) :: ("round_trips", count wire_reads)
      :: summary_fields "" wall)
    @ [ ("us_per_round_trip", num (wire_us wall.median_ms)) ])

let print_wire records =
  List.iter
    (fun (name, wall) ->
      Fmt.pr "%-26s %8.2f us/round trip  iqr=%.2f us@." name
        (wire_us wall.median_ms) (wire_us wall.iqr_ms))
    records

let run_wire () = print_wire (wire_records ())

(* ------------------------------------------------------------------ *)
(* JSON mode: `dune exec bench/main.exe -- json BENCH_N.json` writes
   every section above as one JSON object, one top-level member per
   line, plus the metrics registry the experiments populated. *)

let write_json path members =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\n";
      List.iteri
        (fun i (key, value) ->
          Printf.fprintf oc "%s  %s: %s"
            (if i = 0 then "" else ",\n")
            (Json.to_string (Json.Str key))
            (Json.to_string value))
        members;
      output_string oc "\n}\n")

let run_json path =
  (* Experiments run with metrics enabled so the snapshot embeds per-phase
     breakdowns (span histograms, per-round fixpoint/Datalog series). *)
  Dc_obs.Obs.reset ();
  Dc_obs.Obs.set_enabled true;
  let records = json_experiments () in
  let planned = planned_records () in
  let planned_random = planned_random_record () in
  let planned_scene = planned_scene_record () in
  let metrics = Json.of_string (Dc_obs.Obs.to_json ()) in
  Dc_obs.Obs.set_enabled false;
  let overhead = obs_overhead_records () in
  let ivm = ivm_records () in
  let toggle = toggle_record () in
  let agg_mins, agg_views = agg_records () in
  let parallel = par_records () in
  let serve = serve_records () in
  let wire = wire_records () in
  let codec = codec_records () in
  write_json path
    [
      ("samples", count samples);
      ("experiments", Json.Arr (List.map experiment_json records));
      ("planned_closure_256", Json.Arr (List.map planned_json planned));
      ("planned_closure_random_300", planned_json planned_random);
      ("planned_scene_256", planned_json planned_scene);
      ("obs_overhead", obs_overhead_json overhead);
      ("ivm", Json.Arr (List.map view_json ivm @ [ toggle_json toggle ]));
      ( "aggregates",
        Json.Obj
          [
            ("recursive_min", Json.Arr (List.map agg_min_json agg_mins));
            ("maintained_view", Json.Arr (List.map view_json agg_views));
          ] );
      ( "parallel",
        Json.Obj
          [
            ("degrees", Json.Arr (List.map count (par_degrees ())));
            ("cells", Json.Arr (List.map par_json parallel));
          ] );
      ("stmt_cache", Json.Arr (List.map serve_json serve));
      ("wire", Json.Arr (List.map wire_json wire));
      ("wire_codec", Json.Arr (List.map codec_json codec));
      ("metrics", metrics);
    ];
  print_records records;
  print_planned planned;
  print_obs_overhead overhead;
  print_ivm ivm;
  print_toggle toggle;
  print_agg (agg_mins, agg_views);
  print_parallel parallel;
  print_serve serve;
  print_wire wire;
  print_codec codec;
  Fmt.pr "wrote %s@." path

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("f3", exp_f3); ("e1", exp_e1); ("e2", exp_e2); ("e2b", exp_e2b);
    ("e3", exp_e3);
    ("e4", exp_e4); ("e5", exp_e5); ("e6", exp_e6); ("e7", exp_e7);
    ("e8", exp_e8); ("e9", exp_e9); ("e10", exp_e10); ("e11", exp_e11);
    ("e12", exp_e12);
  ]

let () =
  let args =
    match Array.to_list Sys.argv with
    | _ :: rest -> List.filter (fun a -> a <> "--") rest
    | [] -> []
  in
  Fmt.pr "# Data Constructors (VLDB 1985) — experiment harness@.";
  match args with
  | [] ->
    List.iter (fun (_, f) -> f ()) experiments;
    run_bechamel ()
  | [ "bechamel" ] -> run_bechamel ()
  | [ "json"; path ] -> run_json path
  | [ "smoke" ] -> run_smoke ()
  | [ "ivm" ] -> run_ivm ()
  | [ "agg" ] -> run_agg ()
  | [ "parallel" ] -> run_parallel ()
  | [ "stmt-cache" ] -> run_serve ()
  | [ "wire" ] -> run_wire ()
  | [ "wire-codec" ] -> print_codec (codec_records ())
  | [ "guard-overhead" ] -> run_guard_overhead ()
  | [ "obs-overhead" ] -> run_obs_overhead ()
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt (String.lowercase_ascii name) experiments with
        | Some f -> f ()
        | None when name = "bechamel" -> run_bechamel ()
        | None -> Fmt.epr "unknown experiment %s@." name)
      names
