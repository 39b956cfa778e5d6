(* Tests for Dc_agg and the aggregate-aware semi-naive engine: recursive
   MIN with per-group bounds (shortest paths), stratified COUNT/SUM,
   stratification placement and rejection of recursion through exact
   aggregates. *)

open Dc_relation
open Dc_datalog
open Syntax
module Agg = Dc_agg.Agg

let i n = Value.Int n
let tuple_of l = Tuple.of_list (List.map i l)

let facts_of pred rows =
  Facts.of_list (List.map (fun r -> (pred, tuple_of r)) rows)

let set_testable =
  Alcotest.testable
    (fun ppf s -> Facts.TS.iter (Tuple.pp ppf) s)
    Facts.TS.equal

let set_of_rows rows =
  List.fold_left (fun s r -> Facts.TS.add (tuple_of r) s) Facts.TS.empty rows

(* ------------------------------------------------------------------ *)
(* Agg unit behavior *)

let min_spec = { Agg.group = [ 0; 1 ]; value = 2; op = Agg.Min }

let test_accumulate () =
  Alcotest.(check bool)
    "min keeps better" true
    (Agg.accumulate min_spec (Some (i 5)) (i 3) = Some (i 3));
  Alcotest.(check bool)
    "min subsumes worse" true
    (Agg.accumulate min_spec (Some (i 3)) (i 5) = Some (i 3));
  let count_spec = { Agg.group = [ 0 ]; value = 1; op = Agg.Count } in
  Alcotest.(check bool)
    "count increments" true
    (Agg.accumulate count_spec (Some (i 2)) (i 99) = Some (i 3))

let test_aggregate_reference () =
  (* duplicate raws count once (distinct-set semantics) *)
  let count_spec = { Agg.group = [ 0 ]; value = 1; op = Agg.Count } in
  let raws = List.map tuple_of [ [ 1; 7 ]; [ 1; 7 ]; [ 1; 8 ]; [ 2; 7 ] ] in
  let results = Agg.aggregate count_spec raws in
  Alcotest.(check bool)
    "distinct counting" true
    (List.sort Tuple.compare results
    = List.sort Tuple.compare (List.map tuple_of [ [ 1; 2 ]; [ 2; 1 ] ]))

let test_group_table_offer_displace () =
  let t = Agg.Group_table.create min_spec in
  Alcotest.(check bool)
    "first offer emits" true
    (Agg.Group_table.offer t (tuple_of [ 1; 2; 9 ]) = Some (tuple_of [ 1; 2; 9 ]));
  Alcotest.(check bool)
    "worse offer subsumed" true
    (Agg.Group_table.offer t (tuple_of [ 1; 2; 11 ]) = None);
  Alcotest.(check bool)
    "better offer displaces" true
    (Agg.Group_table.offer t (tuple_of [ 1; 2; 4 ]) = Some (tuple_of [ 1; 2; 4 ]));
  Alcotest.(check bool)
    "displaced drained" true
    (Agg.Group_table.drain_displaced t = [ tuple_of [ 1; 2; 9 ] ]);
  Alcotest.(check bool)
    "drain empties" true
    (Agg.Group_table.drain_displaced t = [])

let test_group_table_retract () =
  let spec = { Agg.group = [ 0 ]; value = 1; op = Agg.Sum } in
  let t = Agg.Group_table.create spec in
  ignore (Agg.Group_table.offer t (tuple_of [ 1; 10 ]));
  ignore (Agg.Group_table.offer t (tuple_of [ 1; 5 ]));
  Alcotest.(check bool)
    "sum after offers" true
    (Agg.Group_table.current t (tuple_of [ 1 ]) = Some (tuple_of [ 1; 15 ]));
  (match Agg.Group_table.retract t (tuple_of [ 1; 10 ]) with
  | Some (old_r, Some new_r) ->
    Alcotest.(check bool) "retract old" true (old_r = tuple_of [ 1; 15 ]);
    Alcotest.(check bool) "retract new" true (new_r = tuple_of [ 1; 5 ])
  | _ -> Alcotest.fail "retract did not update");
  match Agg.Group_table.retract t (tuple_of [ 1; 5 ]) with
  | Some (_, None) -> ()
  | _ -> Alcotest.fail "retract did not empty the group"

(* ------------------------------------------------------------------ *)
(* Recursive MIN: shortest paths via semi-naive with per-group bounds *)

(* sp(S,D,W) :- edge(S,D,W).
   sp(S,D,W1 + W2) :- sp(S,M,W1), edge(M,D,W2).   [MIN over (S,D)] *)
let sp_program =
  [
    rule
      (atom "sp" [ var "S"; var "D"; var "W" ])
      [ Pos (atom "edge" [ var "S"; var "D"; var "W" ]) ];
    rule
      (atom "sp"
         [ var "S"; var "D"; Binop (Dc_calculus.Ast.Add, var "W1", var "W2") ])
      [
        Pos (atom "sp" [ var "S"; var "M"; var "W1" ]);
        Pos (atom "edge" [ var "M"; var "D"; var "W2" ]);
      ];
  ]

let sp_aggs = [ ("sp", min_spec) ]

(* Bellman-Ford-style brute force over int-labelled edges. *)
let shortest_paths edges =
  let dist = Hashtbl.create 64 in
  let better k w =
    match Hashtbl.find_opt dist k with
    | Some w' when w' <= w -> false
    | _ ->
      Hashtbl.replace dist k w;
      true
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter (fun (s, d, w) -> if better (s, d) w then changed := true) edges;
    Hashtbl.iter
      (fun (s, m) w ->
        List.iter
          (fun (m', d, w2) ->
            if m' = m && better (s, d) (w + w2) then changed := true)
          edges)
      (Hashtbl.copy dist)
  done;
  Hashtbl.fold (fun (s, d) w acc -> [ s; d; w ] :: acc) dist []

let check_shortest edges =
  let result = Seminaive.run ~aggs:sp_aggs sp_program (facts_of "edge" edges) in
  let expect =
    set_of_rows (shortest_paths (List.map (fun r ->
        match r with
        | [ s; d; w ] -> (s, d, w)
        | _ -> assert false)
        edges))
  in
  Alcotest.check set_testable "shortest paths" expect (Facts.find result "sp")

let test_min_dag () =
  check_shortest
    [ [ 1; 2; 3 ]; [ 1; 3; 1 ]; [ 3; 2; 1 ]; [ 2; 4; 2 ]; [ 3; 4; 10 ] ]

let test_min_cycle () =
  (* positive-weight cycle: bounds stop improving, fixpoint terminates *)
  check_shortest [ [ 1; 2; 1 ]; [ 2; 3; 1 ]; [ 3; 1; 1 ]; [ 3; 4; 5 ] ]

let test_min_parallel_edges () =
  check_shortest [ [ 1; 2; 7 ]; [ 1; 2; 3 ]; [ 2; 3; 2 ]; [ 1; 3; 9 ] ]

(* ------------------------------------------------------------------ *)
(* Stratified COUNT and consumption from a higher stratum *)

(* deg(S, D) :- edge(S, D, W).            [COUNT over (S), value D]
   busy(S)  :- deg(S, C), C >= 2. *)
let deg_program =
  [
    rule
      (atom "deg" [ var "S"; var "D" ])
      [ Pos (atom "edge" [ var "S"; var "D"; var "W" ]) ];
    rule
      (atom "busy" [ var "S" ])
      [
        Pos (atom "deg" [ var "S"; var "C" ]);
        Test (Dc_calculus.Ast.Ge, var "C", cint 2);
      ];
  ]

let deg_aggs = [ ("deg", { Agg.group = [ 0 ]; value = 1; op = Agg.Count }) ]

let test_count_stratified () =
  let edges =
    [ [ 1; 2; 5 ]; [ 1; 3; 5 ]; [ 1; 3; 7 ]; [ 2; 3; 1 ]; [ 4; 1; 1 ] ]
  in
  let result = Seminaive.run ~aggs:deg_aggs deg_program (facts_of "edge" edges) in
  (* (1,3) appears with two weights but contributes once per distinct
     (S,D) raw tuple *)
  Alcotest.check set_testable "counts"
    (set_of_rows [ [ 1; 2 ]; [ 2; 1 ]; [ 4; 1 ] ])
    (Facts.find result "deg");
  Alcotest.check set_testable "busy consumes final counts"
    (set_of_rows [ [ 1 ] ])
    (Facts.find result "busy")

let test_count_strata_placement () =
  let strata = Stratify.strata ~aggs:deg_aggs deg_program in
  let s p = Stratify.SM.find p strata in
  Alcotest.(check bool)
    "busy strictly above deg" true
    (s "busy" > s "deg")

let test_minmax_share_stratum () =
  let strata = Stratify.strata ~aggs:sp_aggs sp_program in
  Alcotest.(check int) "sp in stratum 0" 0 (Stratify.SM.find "sp" strata)

(* recursion through COUNT must be rejected *)
let test_count_recursion_rejected () =
  let program =
    [
      rule
        (atom "c" [ var "X"; var "Y" ])
        [ Pos (atom "e" [ var "X"; var "Y" ]) ];
      rule
        (atom "c" [ var "X"; var "Y" ])
        [ Pos (atom "n" [ var "X"; var "Y" ]) ];
      rule
        (atom "n" [ var "X"; var "Y" ])
        [ Pos (atom "c" [ var "X"; var "Y" ]) ];
    ]
  in
  let aggs = [ ("c", { Agg.group = [ 0 ]; value = 1; op = Agg.Count }) ] in
  Alcotest.(check bool)
    "not stratifiable" true
    (match Stratify.strata ~aggs program with
    | _ -> false
    | exception Stratify.Not_stratifiable _ -> true)

(* MIN consumed by a plain predicate: plain consumer sits strictly above *)
let test_min_consumer_above () =
  let program =
    sp_program
    @ [
        rule
          (atom "reach" [ var "S"; var "D" ])
          [ Pos (atom "sp" [ var "S"; var "D"; var "W" ]) ];
      ]
  in
  let strata = Stratify.strata ~aggs:sp_aggs program in
  let s p = Stratify.SM.find p strata in
  Alcotest.(check bool) "reach above sp" true (s "reach" > s "sp");
  (* and evaluation is exact: reach = reachable pairs *)
  let edges = [ [ 1; 2; 1 ]; [ 2; 3; 1 ]; [ 3; 1; 1 ] ] in
  let result = Seminaive.run ~aggs:sp_aggs program (facts_of "edge" edges) in
  Alcotest.(check int)
    "reach pairs" 9
    (Facts.TS.cardinal (Facts.find result "reach"))

(* ------------------------------------------------------------------ *)
(* The constructor route: a surface application of an aggregated
   constructor reaches the aggregate-aware engine from the writer's
   database and from a pinned snapshot alike, under the caller's guard. *)

module Database = Dc_core.Database
module Guard = Dc_guard.Guard

let shortest_path () = Oracle.example_source "shortest_path.dbpl"
let road_shortest = Dc_calculus.Ast.(Construct (Rel "Road", "shortest", []))

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_pinned_read () =
  let _, plain = Dc_lang.Elaborate.run_string (shortest_path ()) in
  (* the transcript's first block: QUERY Road{shortest} and its 12 rows *)
  let rec block_end i =
    if i + 1 >= String.length plain || String.sub plain i 2 = "\n\n" then i
    else block_end (i + 1)
  in
  let block = String.sub plain 0 (block_end 0) in
  Alcotest.(check bool) "12 rows unpinned" true (contains block "(12 tuples)");
  let _, pinned =
    Dc_lang.Elaborate.run_string
      (shortest_path () ^ "\nBEGIN;\nQUERY Road{shortest};\nCOMMIT;\n")
  in
  let tail =
    String.sub pinned (String.length plain)
      (String.length pinned - String.length plain)
  in
  Alcotest.(check bool) "pinned read prints the same 12 rows" true
    (contains tail block)

let test_query_guard () =
  let db, _ = Dc_lang.Elaborate.run_string (shortest_path ()) in
  match Database.query ~guard:(Guard.create ~rounds:1 ()) db road_shortest with
  | _ -> Alcotest.fail "a one-round guard did not bound the aggregate route"
  | exception Guard.Exhausted (Guard.Rounds_exhausted 1, _) -> ()

(* ------------------------------------------------------------------ *)
(* Seeded differential workloads (test/oracle.ml): recursive MIN vs
   Bellman-Ford, stratified SUM rollup vs a set-semantics brute force,
   stratified NOT (with a COUNT stratum above it) vs the complement.
   Any failure message carries the seed; reproduce with
   [Oracle.check_agg_seed <seed>].  CI reruns these under DC_DOMAINS=4
   to check that the degree changes nothing. *)

let oracle_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let oracle_cases name check =
  List.map
    (fun seed ->
      Alcotest.test_case (Fmt.str "%s seed %d" name seed) `Quick (fun () ->
          check seed))
    oracle_seeds

let () =
  Alcotest.run "agg"
    [
      ( "unit",
        [
          Alcotest.test_case "accumulate" `Quick test_accumulate;
          Alcotest.test_case "aggregate reference" `Quick
            test_aggregate_reference;
          Alcotest.test_case "group table offer/displace" `Quick
            test_group_table_offer_displace;
          Alcotest.test_case "group table retract" `Quick
            test_group_table_retract;
        ] );
      ( "seminaive",
        [
          Alcotest.test_case "shortest paths (dag)" `Quick test_min_dag;
          Alcotest.test_case "shortest paths (cycle)" `Quick test_min_cycle;
          Alcotest.test_case "shortest paths (parallel edges)" `Quick
            test_min_parallel_edges;
          Alcotest.test_case "stratified count" `Quick test_count_stratified;
        ] );
      ( "stratify",
        [
          Alcotest.test_case "count consumer above" `Quick
            test_count_strata_placement;
          Alcotest.test_case "min recursion shares stratum" `Quick
            test_minmax_share_stratum;
          Alcotest.test_case "count recursion rejected" `Quick
            test_count_recursion_rejected;
          Alcotest.test_case "min consumer above" `Quick
            test_min_consumer_above;
        ] );
      ( "constructor route",
        [
          Alcotest.test_case "pinned read (BEGIN ... COMMIT)" `Quick
            test_pinned_read;
          Alcotest.test_case "caller's guard bounds it" `Quick test_query_guard;
        ] );
      ( "oracle",
        oracle_cases "shortest path" Oracle.check_shortest_path_seed
        @ oracle_cases "bom rollup" Oracle.check_bom_rollup_seed
        @ oracle_cases "negation" Oracle.check_negation_seed );
    ]
