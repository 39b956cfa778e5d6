(* Tests for Dc_exec: the shared physical operator IR.

   - unit tests for the join-order rewrite (the one greedy rule that
     replaced the per-engine heuristics);
   - executor semantics: union/distinct/diff counters, anti-joins,
     delta substitution by running one pipeline under different contexts;
   - differential tests via the shared seeded oracle (test/oracle.ml):
     naive, semi-naive, magic, tabled and a hand-rolled direct-IR
     fixpoint must agree on recursive programs over random EDBs;
   - EXPLAIN golden output for examples/same_generation.dbpl. *)

open Dc_relation
open Dc_datalog
open Syntax

module Ir = Dc_exec.Ir
module Join_order = Dc_exec.Join_order
module TS = Facts.TS

let i n = Value.Int n
let tuple2 a b = Tuple.make2 (i a) (i b)
let facts_testable = Oracle.facts_testable

(* ------------------------------------------------------------------ *)
(* Join_order *)

let cand ?(deps = []) ?card keys_given = { Join_order.deps; card; keys_given }

let no_keys _ = 0

let check_order msg expected cands =
  Alcotest.(check (list int)) msg expected (Join_order.order cands)

let test_order_smallest_card_first () =
  check_order "smallest known cardinality first" [ 1; 0; 2 ]
    [
      cand ~card:100 no_keys;
      cand ~card:5 no_keys;
      cand no_keys (* unknown sorts last *);
    ]

let test_order_keys_beat_card () =
  (* once 2 (tiny) is placed, 1 can probe an index: the keyed probe wins
     over 0's smaller cardinality *)
  check_order "keyed probe beats smaller scan" [ 2; 1; 0 ]
    [
      cand ~card:10 no_keys;
      cand ~card:1000 (fun placed -> if List.mem 2 placed then 1 else 0);
      cand ~card:2 no_keys;
    ]

let test_order_delta_hint_first () =
  (* the semi-naive delta is marked card 0: scanned first, fulls probed *)
  check_order "delta scanned first" [ 1; 0; 2 ]
    [
      cand ~card:50 (fun placed -> List.length placed);
      cand ~card:0 no_keys;
      cand ~card:50 (fun placed -> List.length placed);
    ]

let test_order_stable_on_ties () =
  check_order "program order on full tie" [ 0; 1; 2 ]
    [ cand ~card:7 no_keys; cand ~card:7 no_keys;
      cand ~card:7 no_keys ]

let test_order_respects_deps () =
  check_order "dependencies are hard constraints" [ 1; 0 ]
    [ cand ~deps:[ 1 ] ~card:1 no_keys; cand ~card:100 no_keys ]

let test_order_unsatisfiable_deps () =
  (* mutual correlation: fall back to program order *)
  check_order "mutual deps keep program order" [ 0; 1 ]
    [ cand ~deps:[ 1 ] no_keys; cand ~deps:[ 0 ] no_keys ]

(* ------------------------------------------------------------------ *)
(* Executor semantics through the rule compiler *)

let compile = Oracle.compile

let unary_facts pred l = List.map (fun n -> (pred, Tuple.make1 (i n))) l

let test_union_distinct_diff_counters () =
  (* a(X) :- r(X).  a(X) :- s(X).   Diff(Distinct(Union)) except t *)
  let r1 = (compile (rule (atom "a" [ var "X" ]) [ Pos (atom "r" [ var "X" ]) ])).Engine.pipeline in
  let r2 = (compile (rule (atom "a" [ var "X" ]) [ Pos (atom "s" [ var "X" ]) ])).Engine.pipeline in
  let u = Ir.union ~label:(lazy "a") [ r1; r2 ] in
  let d = Ir.distinct ~label:(lazy "a") u in
  let pipe = Ir.diff ~label:(lazy "a") ~except:(Ir.Named "t") d in
  let store =
    Facts.of_list
      (unary_facts "r" [ 1; 2 ] @ unary_facts "s" [ 2; 3 ] @ unary_facts "t" [ 3 ])
  in
  let out = ref TS.empty in
  Ir.run (Engine.store_ctx store) pipe (fun t -> out := TS.add t !out);
  Alcotest.check facts_testable "diff(distinct(union)) result"
    (TS.of_list [ Tuple.make1 (i 1); Tuple.make1 (i 2) ])
    !out;
  Alcotest.(check int) "union emits duplicates" 4 u.Ir.tc.Ir.rows;
  Alcotest.(check int) "distinct dedups" 3 d.Ir.tc.Ir.rows;
  Alcotest.(check int) "diff probes per distinct tuple" 3 pipe.Ir.tc.Ir.probes;
  Alcotest.(check int) "diff drops the known tuple" 2 pipe.Ir.tc.Ir.rows

let test_negation_anti_join () =
  (* q(X) :- r(X), not t(X). *)
  let c =
    compile
      (rule (atom "q" [ var "X" ])
         [ Pos (atom "r" [ var "X" ]); Neg (atom "t" [ var "X" ]) ])
  in
  let store = Facts.of_list (unary_facts "r" [ 1; 2; 3 ] @ unary_facts "t" [ 2 ]) in
  let out = ref TS.empty in
  Ir.run (Engine.store_ctx store) c.Engine.pipeline (fun t -> out := TS.add t !out);
  Alcotest.check facts_testable "anti-join"
    (TS.of_list [ Tuple.make1 (i 1); Tuple.make1 (i 3) ])
    !out

let test_delta_substitution () =
  (* q(X,Z) :- e(X,Y), e(Y,Z): one pipeline, two contexts.  The delta run
     reads Δe for the first occurrence without rebuilding anything. *)
  let joined =
    Engine.compile_rule ~reorder:false
      ~source:(fun idx (a : atom) ->
        Engine.Static
          (Ir.Named (if idx = 0 then Engine.delta_name a.pred else a.pred)))
      ~neg_source:(fun (a : atom) -> Ir.Named a.pred)
      ~label:(lazy "q(X,Z) :- Δe(X,Y), e(Y,Z)")
      (rule
         (atom "q" [ var "X"; var "Z" ])
         [
           Pos (atom "e" [ var "X"; var "Y" ]);
           Pos (atom "e" [ var "Y"; var "Z" ]);
         ])
  in
  let full = Facts.of_list [ ("e", tuple2 1 2); ("e", tuple2 2 3); ("e", tuple2 3 4) ] in
  let run_with delta =
    let out = ref TS.empty in
    Ir.run
      (Engine.delta_ctx ~full ~delta)
      joined.Engine.pipeline
      (fun t -> out := TS.add t !out);
    !out
  in
  (* delta = {3→4}: only pairs starting from the delta edge *)
  Alcotest.check facts_testable "first delta"
    TS.empty
    (run_with (Facts.of_list [ ("e", tuple2 3 4) ]));
  (* delta = {1→2}: 1→2 joined with full 2→3 *)
  Alcotest.check facts_testable "second delta"
    (TS.of_list [ tuple2 1 3 ])
    (run_with (Facts.of_list [ ("e", tuple2 1 2) ]));
  (* counters accumulated across both runs of the same pipeline *)
  Alcotest.(check int) "project counts both runs" 1
    joined.Engine.pipeline.Ir.tc.Ir.rows

(* ------------------------------------------------------------------ *)
(* Differential: all engines against each other, via the shared oracle *)

let edb_of_relation pred rel = Facts.of_relation pred rel (Facts.empty ())

let graph_edb ~seed ~nodes ~edges =
  edb_of_relation "edge" (Dc_workload.Graph_gen.random_graph ~seed ~nodes ~edges)

let test_differential_fixed () =
  List.iter
    (fun (msg, program) ->
      let edb = graph_edb ~seed:42 ~nodes:12 ~edges:24 in
      let reference = Oracle.check_engines_agree ~msg program edb "path" 2 in
      (* pick a start node that actually reaches something *)
      match TS.choose_opt reference with
      | Some t ->
        Oracle.check_bound_goal_engines ~msg program edb "path" (Tuple.get t 0)
          reference
      | None -> ())
    [
      ("linear tc", Oracle.tc_linear);
      ("left-linear tc", Oracle.tc_left_linear);
      ("nonlinear tc", Oracle.tc_nonlinear);
    ]

let test_differential_same_generation () =
  let up, flat, down = Dc_workload.Graph_gen.same_generation_tree 4 in
  let edb =
    Facts.of_relation "up" up
      (Facts.of_relation "flat" flat (Facts.of_relation "down" down (Facts.empty ())))
  in
  let reference =
    Oracle.check_engines_agree ~msg:"same generation" Oracle.sg_program edb "sg" 2
  in
  match TS.choose_opt reference with
  | Some t ->
    Oracle.check_bound_goal_engines ~msg:"same generation" Oracle.sg_program edb
      "sg" (Tuple.get t 0) reference
  | None -> Alcotest.fail "same-generation tree produced no pairs"

let test_differential_mutual () =
  let edb =
    Facts.add
      (graph_edb ~seed:3 ~nodes:10 ~edges:20)
      "start"
      (Tuple.make1 (Dc_workload.Graph_gen.node 0))
  in
  ignore
    (Oracle.check_engines_agree ~msg:"mutual even" Oracle.mutual_program edb
       "even" 1);
  ignore
    (Oracle.check_engines_agree ~msg:"mutual odd" Oracle.mutual_program edb
       "odd" 1)

(* Fixed seeds through the full seeded-case generator: every shape the
   oracle can draw is exercised deterministically on every run. *)
let test_oracle_fixed_seeds () =
  for seed = 0 to 47 do
    Oracle.check_seed seed
  done

(* Randomized: the same seeded oracle over arbitrary seeds.  On failure
   QCheck reports the seed as the counterexample, and every Alcotest
   message inside [check_seed] carries it too. *)
let prop_oracle_seeds =
  QCheck.Test.make ~count:60 ~name:"seeded oracle: engines agree"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      Oracle.check_seed seed;
      true)

(* ------------------------------------------------------------------ *)
(* Trace totals across fixpoint rounds *)

(* The served closure workload's constructors over one edge relation
   [G]: right-linear [tc] and non-linear [tcn]. *)
let closure_db pairs =
  let values =
    String.concat ", "
      (List.map (fun (a, b) -> Printf.sprintf {|("n%d", "n%d")|} a b) pairs)
  in
  let db, _ =
    Dc_lang.Elaborate.run_string
      (Printf.sprintf
         {|TYPE node = STRING;
TYPE edgerel = RELATION a, b OF RECORD a, b: node END;
VAR G: edgerel;
CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <e.a, p.b> OF EACH e IN Rel, EACH p IN Rel{tc()}: e.b = p.a
END tc;
CONSTRUCTOR tcn FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <p.a, q.b> OF EACH p IN Rel{tcn()}, EACH q IN Rel{tcn()}: p.b = q.a
END tcn;
INSERT G VALUES %s;
|}
         values)
  in
  db

(* A [Project] emits one tuple per input row, so in every recorded
   pipeline its rows equal its input's — also when the counters are
   totalled over fixpoint rounds whose join order flipped (the delta
   outgrowing the base relation). *)
let check_project_rows msg trace =
  let rec walk entry (t : Ir.t) =
    match t.top with
    | Ir.Project p ->
      Alcotest.(check int)
        (Fmt.str "%s: %s: project rows = input rows" msg entry)
        p.p_input.c.rows t.tc.rows
    | Ir.Union ts -> List.iter (walk entry) ts
    | Ir.Diff d -> walk entry d.d_input
    | Ir.Distinct s -> walk entry s
    | Ir.Group g -> walk entry g.g_input
    | Ir.Closure _ -> ()
  in
  List.iter (fun (entry, t) -> walk entry t) (Ir.Trace.pipelines trace)

let traced_closure msg db constructor =
  let trace = Ir.Trace.create () in
  ignore
    (Dc_core.Database.query ~trace db
       Dc_calculus.Ast.(Construct (Rel "G", constructor, [])));
  check_project_rows (Fmt.str "%s{%s()}" msg constructor) trace

(* The closure workload's two flipping cases: a random digraph's
   right-linear closure and a chain's non-linear one. *)
let test_trace_project_rows_closures () =
  let rng = Dc_workload.Rng.create 7 in
  let random =
    List.init 240 (fun _ ->
        (Dc_workload.Rng.int rng 80, Dc_workload.Rng.int rng 80))
  in
  traced_closure "random" (closure_db random) "tc";
  traced_closure "chain" (closure_db (List.init 64 (fun i -> (i, i + 1)))) "tcn"

let prop_trace_project_rows =
  QCheck.Test.make ~count:20 ~name:"traced closures: project rows = input rows"
    QCheck.(pair (int_bound 1_000_000) (int_range 10 60))
    (fun (seed, nodes) ->
      let rng = Dc_workload.Rng.create seed in
      let pairs =
        List.init (3 * nodes) (fun _ ->
            (Dc_workload.Rng.int rng nodes, Dc_workload.Rng.int rng nodes))
      in
      let db = closure_db pairs in
      let msg = Fmt.str "seed %d, %d nodes" seed nodes in
      traced_closure msg db "tc";
      traced_closure msg db "tcn";
      true)

(* ------------------------------------------------------------------ *)
(* EXPLAIN golden output *)

let find_file candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail (Fmt.str "not found: %s" (List.hd candidates))

let read_file path = In_channel.with_open_text path In_channel.input_all

let test_explain_golden () =
  let program =
    find_file
      [
        "../examples/same_generation.dbpl"; "examples/same_generation.dbpl";
        "../../examples/same_generation.dbpl";
        "../../../examples/same_generation.dbpl";
        "/root/repo/examples/same_generation.dbpl";
      ]
  in
  let expected =
    find_file
      [
        "explain_same_generation.expected"; "test/explain_same_generation.expected";
        "../test/explain_same_generation.expected";
        "/root/repo/test/explain_same_generation.expected";
      ]
  in
  let _, out = Dc_lang.Elaborate.run_string (read_file program) in
  Alcotest.(check string) "EXPLAIN output on same_generation.dbpl"
    (read_file expected) out

(* The regular-system recogniser on the 256-chain: EXPLAIN names the
   closure operator and its seed for the non-linear Chain{tcn()} (every
   source), the point closures (from a bound first column, backwards
   from a bound second one) and a join of the closure with the chain
   (from the bound binder's constant). *)
let test_explain_closure_golden () =
  let program =
    find_file
      [
        "../examples/closure_chain.dbpl"; "examples/closure_chain.dbpl";
        "../../examples/closure_chain.dbpl";
        "../../../examples/closure_chain.dbpl";
      ]
  in
  let expected =
    find_file
      [
        "explain_closure_operator.expected";
        "test/explain_closure_operator.expected";
        "../test/explain_closure_operator.expected";
      ]
  in
  let _, out = Dc_lang.Elaborate.run_string (read_file program) in
  Alcotest.(check string) "EXPLAIN output on closure_chain.dbpl"
    (read_file expected) out

(* Wall-clock readings make EXPLAIN ANALYZE output nondeterministic; the
   golden comparison replaces every [<digits>[.<digits>]ms] with [<N>ms]
   and keeps everything else (tree shape, rows, probes, round deltas)
   byte-exact. *)
let normalize_times s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  let i = ref 0 in
  while !i < n do
    if is_digit s.[!i] then begin
      let j = ref !i in
      while !j < n && is_digit s.[!j] do incr j done;
      if !j < n && s.[!j] = '.' then begin
        incr j;
        while !j < n && is_digit s.[!j] do incr j done
      end;
      if !j + 1 < n && s.[!j] = 'm' && s.[!j + 1] = 's' then begin
        Buffer.add_string b "<N>ms";
        i := !j + 2
      end
      else begin
        Buffer.add_string b (String.sub s !i (!j - !i));
        i := !j
      end
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* Substring replace, leftmost-first. *)
let replace_all ~sub ~by s =
  let ls = String.length sub in
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    if !i + ls <= n && String.sub s !i ls = sub then begin
      Buffer.add_string b by;
      i := !i + ls
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let test_explain_analyze_golden () =
  let program =
    find_file
      [
        "../examples/same_generation.dbpl"; "examples/same_generation.dbpl";
        "../../examples/same_generation.dbpl";
        "../../../examples/same_generation.dbpl";
        "/root/repo/examples/same_generation.dbpl";
      ]
  in
  let expected =
    find_file
      [
        "explain_analyze_same_generation.expected";
        "test/explain_analyze_same_generation.expected";
        "../test/explain_analyze_same_generation.expected";
        "/root/repo/test/explain_analyze_same_generation.expected";
      ]
  in
  let src =
    replace_all ~sub:"EXPLAIN " ~by:"EXPLAIN ANALYZE " (read_file program)
  in
  (* EXPLAIN ANALYZE sticky-enables metrics collection: restore so the
     remaining tests in this binary see the configured state *)
  let saved = Dc_obs.Obs.on () in
  let _, out =
    Fun.protect
      ~finally:(fun () -> Dc_obs.Obs.set_enabled saved)
      (fun () -> Dc_lang.Elaborate.run_string src)
  in
  Alcotest.(check string) "EXPLAIN ANALYZE output, times normalized"
    (read_file expected) (normalize_times out)

(* ------------------------------------------------------------------ *)
(* The traversal's numbered graph, as a maintained view uses it: a set of
   sources yields each distinct source's pairs in turn, [upstream] is
   every node whose closure reaches a target (the targets included), and
   a revised graph traverses as one built again from the changed edges
   (or declines when an added edge brings in a new node). *)

module Reach = Dc_exec.Reach

let prop_reach_graph =
  QCheck.Test.make ~count:200 ~name:"reach: source sets, upstream, revise"
    QCheck.(
      triple
        (list_of_size Gen.(int_bound 24) (pair (int_bound 9) (int_bound 9)))
        (list_of_size Gen.(int_bound 5) (int_bound 11))
        (pair (int_bound 11) (int_bound 11)))
    (fun (pairs, sources, (a, b)) ->
      let node i = Value.Int i in
      let edge (x, y) = Tuple.make2 (node x) (node y) in
      let pairs = List.sort_uniq compare pairs in
      let graph pairs = Reach.graph [| (fun f -> List.iter (fun p -> f (edge p)) pairs) |] in
      let run g seed =
        let acc = ref [] and nodes = Reach.nodes g in
        ignore
          (Reach.run g Reach.closure seed (fun x y -> acc := (nodes.(x), nodes.(y)) :: !acc));
        List.rev !acc
      in
      let g = graph pairs and sources = List.map node sources in
      let distinct = List.sort_uniq Value.compare sources in
      let every = run g Reach.Every in
      let ancestors =
        List.sort_uniq Value.compare
          (distinct
          @ List.filter_map
              (fun (x, y) -> if List.mem y distinct then Some x else None)
              every)
      in
      let removed = List.filteri (fun i _ -> i mod 3 = 0) pairs in
      let added = if List.mem (a, b) pairs then [] else [ (a, b) ] in
      let after = added @ List.filter (fun p -> not (List.mem p removed)) pairs in
      let known i = List.exists (fun (x, y) -> x = i || y = i) pairs in
      run g (Reach.From sources)
      = List.concat_map (fun v -> run g (Reach.From [ v ])) distinct
      && Reach.upstream g sources = ancestors
      &&
      match
        Reach.revise g 0 ~added:(List.map edge added) ~removed:(List.map edge removed)
      with
      | Some g' -> run g' Reach.Every = run (graph after) Reach.Every
      | None -> List.exists (fun (x, y) -> not (known x && known y)) added)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dc_exec"
    [
      ( "join order",
        [
          Alcotest.test_case "smallest card first" `Quick
            test_order_smallest_card_first;
          Alcotest.test_case "keys beat card" `Quick test_order_keys_beat_card;
          Alcotest.test_case "delta hint first" `Quick
            test_order_delta_hint_first;
          Alcotest.test_case "stable on ties" `Quick test_order_stable_on_ties;
          Alcotest.test_case "respects deps" `Quick test_order_respects_deps;
          Alcotest.test_case "unsatisfiable deps" `Quick
            test_order_unsatisfiable_deps;
        ] );
      ( "executor",
        [
          Alcotest.test_case "union/distinct/diff counters" `Quick
            test_union_distinct_diff_counters;
          Alcotest.test_case "negation as anti-join" `Quick
            test_negation_anti_join;
          Alcotest.test_case "delta substitution" `Quick test_delta_substitution;
        ] );
      ( "differential",
        [
          Alcotest.test_case "fixed graphs, three tc shapes" `Quick
            test_differential_fixed;
          Alcotest.test_case "same generation" `Quick
            test_differential_same_generation;
          Alcotest.test_case "mutual recursion" `Quick test_differential_mutual;
          Alcotest.test_case "seeded oracle, fixed seeds" `Quick
            test_oracle_fixed_seeds;
          QCheck_alcotest.to_alcotest prop_oracle_seeds;
        ] );
      ( "trace totals",
        [
          Alcotest.test_case "closure project rows" `Quick
            test_trace_project_rows_closures;
          QCheck_alcotest.to_alcotest prop_trace_project_rows;
        ] );
      ("reach", [ QCheck_alcotest.to_alcotest prop_reach_graph ]);
      ( "explain",
        [
          Alcotest.test_case "golden output" `Quick test_explain_golden;
          Alcotest.test_case "analyze golden output" `Quick
            test_explain_analyze_golden;
          Alcotest.test_case "closure operator golden output" `Quick
            test_explain_closure_golden;
        ] );
    ]
