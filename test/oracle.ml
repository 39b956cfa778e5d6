(* Seeded differential oracle, shared by the test executables.

   Five independent evaluators — naive, semi-naive, magic, tabled, and
   a hand-rolled fixpoint driving the compiled IR pipelines directly —
   must agree on every workload.  [case_of_seed] derives a complete test case (program shape
   + randomized EDB from the lib/workload generators) from one explicit
   {!Dc_workload.Rng} seed, and every assertion message carries that
   seed, so any failure is reproducible with [Oracle.check_seed <seed>]. *)

open Dc_relation
open Dc_datalog
open Syntax

module Ir = Dc_exec.Ir
module TS = Facts.TS
module Rng = Dc_workload.Rng
module Graph_gen = Dc_workload.Graph_gen
module Bom_gen = Dc_workload.Bom_gen

let facts_testable =
  Alcotest.testable
    (fun ppf s -> Facts.TS.iter (Tuple.pp ppf) s)
    Facts.TS.equal

(* ------------------------------------------------------------------ *)
(* The fifth implementation: compile each rule with the shared rule
   compiler, then drive the pipelines with a hand-rolled naive fixpoint
   independent of the engines' round/driver logic. *)

let compile ?reorder ?card ?bound rule =
  Engine.compile_rule ?reorder ?card ?bound
    ~source:(fun _ (a : atom) -> Engine.Static (Ir.Named a.pred))
    ~neg_source:(fun (a : atom) -> Ir.Named a.pred)
    ~label:(lazy (Fmt.str "%a" pp_rule rule))
    rule

let direct_ir (program : program) (edb : Facts.t) pred =
  let pipelines =
    List.map
      (fun (p, rules) ->
        (p, List.map (fun r -> (compile r).Engine.pipeline) rules))
      (Engine.group_by_head program)
  in
  let store = ref edb in
  let changed = ref true in
  while !changed do
    changed := false;
    let ctx = Engine.store_ctx !store in
    let news =
      List.map
        (fun (p, pipes) ->
          let fresh = ref TS.empty in
          List.iter
            (fun pipe -> Ir.run ctx pipe (fun t -> fresh := TS.add t !fresh))
            pipes;
          (p, TS.diff !fresh (Facts.find !store p)))
        pipelines
    in
    List.iter
      (fun (p, s) ->
        if not (TS.is_empty s) then begin
          changed := true;
          store := Facts.add_set !store p s
        end)
      news
  done;
  Facts.find !store pred

(* ------------------------------------------------------------------ *)
(* Program shapes *)

let tc_linear =
  [
    rule (atom "path" [ var "X"; var "Y" ]) [ Pos (atom "edge" [ var "X"; var "Y" ]) ];
    rule
      (atom "path" [ var "X"; var "Z" ])
      [ Pos (atom "edge" [ var "X"; var "Y" ]); Pos (atom "path" [ var "Y"; var "Z" ]) ];
  ]

let tc_left_linear =
  [
    rule (atom "path" [ var "X"; var "Y" ]) [ Pos (atom "edge" [ var "X"; var "Y" ]) ];
    rule
      (atom "path" [ var "X"; var "Z" ])
      [ Pos (atom "path" [ var "X"; var "Y" ]); Pos (atom "edge" [ var "Y"; var "Z" ]) ];
  ]

let tc_nonlinear =
  [
    rule (atom "path" [ var "X"; var "Y" ]) [ Pos (atom "edge" [ var "X"; var "Y" ]) ];
    rule
      (atom "path" [ var "X"; var "Z" ])
      [ Pos (atom "path" [ var "X"; var "Y" ]); Pos (atom "path" [ var "Y"; var "Z" ]) ];
  ]

(* sg(X,Y) :- flat(X,Y).
   sg(X,Y) :- up(X,U), sg(U,V), down(V,Y). *)
let sg_program =
  [
    rule (atom "sg" [ var "X"; var "Y" ]) [ Pos (atom "flat" [ var "X"; var "Y" ]) ];
    rule
      (atom "sg" [ var "X"; var "Y" ])
      [
        Pos (atom "up" [ var "X"; var "U" ]);
        Pos (atom "sg" [ var "U"; var "V" ]);
        Pos (atom "down" [ var "V"; var "Y" ]);
      ];
  ]

(* mutual recursion: even/odd reachability from a start node *)
let mutual_program =
  [
    rule (atom "even" [ var "X" ]) [ Pos (atom "start" [ var "X" ]) ];
    rule
      (atom "even" [ var "Y" ])
      [ Pos (atom "odd" [ var "X" ]); Pos (atom "edge" [ var "X"; var "Y" ]) ];
    rule
      (atom "odd" [ var "Y" ])
      [ Pos (atom "even" [ var "X" ]); Pos (atom "edge" [ var "X"; var "Y" ]) ];
  ]

(* parts-explosion reachability over the ternary Contains relation (the
   quantity column rides along unbound in the recursive rule) *)
let bom_program =
  [
    rule
      (atom "reach" [ var "A"; var "C" ])
      [ Pos (atom "contains" [ var "A"; var "C"; var "Q" ]) ];
    rule
      (atom "reach" [ var "A"; var "C" ])
      [
        Pos (atom "contains" [ var "A"; var "B"; var "Q" ]);
        Pos (atom "reach" [ var "B"; var "C" ]);
      ];
  ]

(* pairs an even number of edges apart: recursive, but its branches join
   two and three ranges, so the regular-system recogniser declines it and
   a view of it is maintained by DRed *)
let even_paths_program =
  [
    rule
      (atom "even" [ var "X"; var "Y" ])
      [ Pos (atom "edge" [ var "X"; var "Z" ]); Pos (atom "edge" [ var "Z"; var "Y" ]) ];
    rule
      (atom "even" [ var "X"; var "Y" ])
      [
        Pos (atom "edge" [ var "X"; var "Z" ]);
        Pos (atom "edge" [ var "Z"; var "W" ]);
        Pos (atom "even" [ var "W"; var "Y" ]);
      ];
  ]

let edb_of_relation pred rel = Facts.of_relation pred rel (Facts.empty ())

(* ------------------------------------------------------------------ *)
(* Agreement checks *)

let check_engines_agree ~msg program edb pred arity =
  let reference = Naive.query program edb pred in
  Alcotest.check facts_testable (msg ^ ": seminaive = naive") reference
    (Seminaive.query program edb pred);
  Alcotest.check facts_testable (msg ^ ": direct IR = naive") reference
    (direct_ir program edb pred);
  (* magic with an all-free query must still return everything *)
  (match
     Magic.answer program edb
       (atom pred (List.init arity (fun k -> Var (Fmt.str "Q%d" k))))
   with
  | answers ->
    Alcotest.check facts_testable (msg ^ ": magic = naive") reference answers
  | exception Magic.Unsupported _ -> ());
  reference

(* bound goal: first argument fixed to a value present in the answers *)
let check_bound_goal_engines ~msg program edb pred start reference =
  let goal = atom pred [ Const start; var "Y" ] in
  let expected =
    TS.filter (fun t -> Value.equal (Tuple.get t 0) start) reference
  in
  Alcotest.check facts_testable (msg ^ ": tabled = restricted naive") expected
    (Tabled.solve program edb goal);
  Alcotest.check facts_testable (msg ^ ": magic = restricted naive") expected
    (Magic.answer program edb goal)

(* ------------------------------------------------------------------ *)
(* Seeded case generation *)

type case = {
  case_name : string;  (** shape + generator parameters, for messages *)
  case_program : program;
  case_edb : Facts.t;
  case_pred : string;
  case_arity : int;
}

let graph_case rng name program =
  let seed = Rng.int rng 1_000_000 in
  let nodes = 4 + Rng.int rng 13 in
  let edges = nodes + Rng.int rng 41 in
  {
    case_name = Fmt.str "%s(graph seed=%d nodes=%d edges=%d)" name seed nodes edges;
    case_program = program;
    case_edb = edb_of_relation "edge" (Graph_gen.random_graph ~seed ~nodes ~edges);
    case_pred = "path";
    case_arity = 2;
  }

let sg_case rng =
  (* independent random up/flat/down graphs: exercises sg off the balanced
     tree the examples use *)
  let seed k = Rng.int rng 1_000_000 + k in
  let nodes = 4 + Rng.int rng 9 in
  let g s = Graph_gen.random_graph ~seed:s ~nodes ~edges:(nodes + Rng.int rng 11) in
  let s1 = seed 0 and s2 = seed 1 and s3 = seed 2 in
  let edb =
    Facts.of_relation "up" (g s1)
      (Facts.of_relation "flat" (g s2)
         (Facts.of_relation "down" (g s3) (Facts.empty ())))
  in
  {
    case_name = Fmt.str "sg(seeds=%d,%d,%d nodes=%d)" s1 s2 s3 nodes;
    case_program = sg_program;
    case_edb = edb;
    case_pred = "sg";
    case_arity = 2;
  }

let mutual_case rng =
  let seed = Rng.int rng 1_000_000 in
  let nodes = 4 + Rng.int rng 9 in
  let edges = nodes + Rng.int rng 21 in
  let edb =
    Facts.add
      (edb_of_relation "edge" (Graph_gen.random_graph ~seed ~nodes ~edges))
      "start"
      (Tuple.make1 (Graph_gen.node (Rng.int rng nodes)))
  in
  {
    case_name = Fmt.str "mutual(graph seed=%d nodes=%d edges=%d)" seed nodes edges;
    case_program = mutual_program;
    case_edb = edb;
    case_pred = (if Rng.bool rng 0.5 then "even" else "odd");
    case_arity = 1;
  }

let bom_case rng =
  let seed = Rng.int rng 1_000_000 in
  let levels = 2 + Rng.int rng 3 in
  let width = 2 + Rng.int rng 4 in
  let uses = 1 + Rng.int rng width in
  let uses = min uses width in
  let edb =
    edb_of_relation "contains" (Bom_gen.hierarchy ~seed ~levels ~width ~uses)
  in
  {
    case_name =
      Fmt.str "bom(seed=%d levels=%d width=%d uses=%d)" seed levels width uses;
    case_program = bom_program;
    case_edb = edb;
    case_pred = "reach";
    case_arity = 2;
  }

let shapes =
  [
    (fun rng -> graph_case rng "tc_linear" tc_linear);
    (fun rng -> graph_case rng "tc_left_linear" tc_left_linear);
    (fun rng -> graph_case rng "tc_nonlinear" tc_nonlinear);
    sg_case;
    mutual_case;
    bom_case;
  ]

let case_of_seed seed =
  let rng = Rng.create seed in
  (Rng.pick rng shapes) rng

(* Run the full 5-way agreement check for one seed.  Raises an Alcotest
   check failure whose message includes both the seed and the generated
   case description. *)
let check_seed seed =
  let c = case_of_seed seed in
  let msg = Fmt.str "seed %d: %s" seed c.case_name in
  let reference =
    check_engines_agree ~msg c.case_program c.case_edb c.case_pred c.case_arity
  in
  if c.case_arity = 2 then
    match TS.choose_opt reference with
    | Some t ->
      check_bound_goal_engines ~msg c.case_program c.case_edb c.case_pred
        (Tuple.get t 0) reference
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Aggregate and negation workloads (PR 10): the engine's grouped
   accumulators and stratified NOT against independent brute-force
   recomputes in plain OCaml.  Aggregates fold the DISTINCT set of raw
   head tuples (the LDL++ convention), and each oracle mirrors exactly
   that set semantics — so a divergence means the engine, not the
   convention.  Seeds ride in every message. *)

module Agg = Dc_agg.Agg

let int_of = function Value.Int n -> n | v -> Alcotest.failf "not an int: %a" Value.pp v

let weighted_edges rel =
  Relation.fold
    (fun t acc -> (Tuple.get t 0, Tuple.get t 1, int_of (Tuple.get t 2)) :: acc)
    rel []

(* sp(S,D,W) :- edge(S,D,W).
   sp(S,D,W1+W2) :- sp(S,M,W1), edge(M,D,W2).      [MIN over (S,D)] *)
let sp_agg_program =
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

let sp_aggs = [ ("sp", { Agg.group = [ 0; 1 ]; value = 2; op = Agg.Min }) ]

(* Bellman-Ford-style relaxation to a fixpoint; nothing shared with the
   semi-naive per-group-bound machinery under test. *)
let shortest_paths_oracle edges =
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
            if Value.equal m m' && better (s, d) (w + w2) then changed := true)
          edges)
      (Hashtbl.copy dist)
  done;
  Hashtbl.fold
    (fun (s, d) w acc -> TS.add (Tuple.of_list [ s; d; Value.Int w ]) acc)
    dist TS.empty

let check_shortest_path_seed seed =
  let rng = Rng.create seed in
  let gseed = Rng.int rng 1_000_000 in
  let nodes = 4 + Rng.int rng 13 in
  let edges = nodes + Rng.int rng 41 in
  let rel = Graph_gen.random_weighted_graph ~seed:gseed ~nodes ~edges ~max_w:9 in
  let msg =
    Fmt.str "seed %d: shortest(graph seed=%d nodes=%d edges=%d)" seed gseed
      nodes edges
  in
  let expected = shortest_paths_oracle (weighted_edges rel) in
  let edb = edb_of_relation "edge" rel in
  Alcotest.check facts_testable (msg ^ ": seminaive MIN = Bellman-Ford")
    expected
    (Seminaive.query ~aggs:sp_aggs sp_agg_program edb "sp")

(* expand(A,C,Q)     :- contains(A,C,Q).
   expand(A,C,Q1*Q2) :- expand(A,B,Q1), contains(B,C,Q2).
   total(A,C,Q*P)    :- expand(A,C,Q), price(C,P).   [SUM over (A), C discriminates] *)
let bom_agg_program =
  [
    rule
      (atom "expand" [ var "A"; var "C"; var "Q" ])
      [ Pos (atom "contains" [ var "A"; var "C"; var "Q" ]) ];
    rule
      (atom "expand"
         [ var "A"; var "C"; Binop (Dc_calculus.Ast.Mul, var "Q1", var "Q2") ])
      [
        Pos (atom "expand" [ var "A"; var "B"; var "Q1" ]);
        Pos (atom "contains" [ var "B"; var "C"; var "Q2" ]);
      ];
    rule
      (atom "total"
         [ var "A"; var "C"; Binop (Dc_calculus.Ast.Mul, var "Q", var "P") ])
      [
        Pos (atom "expand" [ var "A"; var "C"; var "Q" ]);
        Pos (atom "price" [ var "C"; var "P" ]);
      ];
  ]

let bom_aggs = [ ("total", { Agg.group = [ 0 ]; value = 2; op = Agg.Sum }) ]

(* The brute force mirrors the engine's set semantics stage by stage:
   the expansion closure is a SET of (assembly, part, path-quantity)
   triples (equal quantities along different paths collapse), and the
   rollup sums the DISTINCT (assembly, part, quantity * price) raws. *)
let bom_rollup_oracle contains prices =
  let triples = Hashtbl.create 256 in
  List.iter (fun t -> Hashtbl.replace triples t ()) contains;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun (a, b, q1) () ->
        List.iter
          (fun (b', c, q2) ->
            let t = (a, c, q1 * q2) in
            if Value.equal b b' && not (Hashtbl.mem triples t) then begin
              Hashtbl.replace triples t ();
              changed := true
            end)
          contains)
      (Hashtbl.copy triples)
  done;
  let raws = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (a, c, q) () ->
      match List.assoc_opt c prices with
      | Some p -> Hashtbl.replace raws (a, c, q * p) ()
      | None -> ())
    triples;
  let sums = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (a, _, v) () ->
      Hashtbl.replace sums a
        (v + Option.value ~default:0 (Hashtbl.find_opt sums a)))
    raws;
  Hashtbl.fold
    (fun a s acc -> TS.add (Tuple.of_list [ a; Value.Int s ]) acc)
    sums TS.empty

let check_bom_rollup_seed seed =
  let rng = Rng.create seed in
  let gseed = Rng.int rng 1_000_000 in
  let levels = 2 + Rng.int rng 3 in
  let width = 2 + Rng.int rng 4 in
  let uses = 1 + Rng.int rng width in
  let contains_rel = Bom_gen.hierarchy ~seed:gseed ~levels ~width ~uses in
  let contains = weighted_edges contains_rel in
  (* every part gets a deterministic unit price *)
  let parts =
    List.sort_uniq compare
      (List.concat_map (fun (a, c, _) -> [ a; c ]) contains)
  in
  let prices = List.map (fun p -> (p, 1 + Rng.int rng 9)) parts in
  let msg =
    Fmt.str "seed %d: rollup(bom seed=%d levels=%d width=%d uses=%d)" seed
      gseed levels width uses
  in
  let expected = bom_rollup_oracle contains prices in
  let edb =
    Facts.add_set
      (edb_of_relation "contains" contains_rel)
      "price"
      (List.fold_left
         (fun acc (p, c) -> TS.add (Tuple.of_list [ p; Value.Int c ]) acc)
         TS.empty prices)
  in
  Alcotest.check facts_testable (msg ^ ": seminaive SUM = brute force")
    expected
    (Seminaive.query ~aggs:bom_aggs bom_agg_program edb "total")

(* path = transitive closure; unreach = the complement over the node
   domain, through stratified NOT; lonely counts each node's unreachable
   peers — an aggregate stratum ABOVE the negation stratum. *)
let negation_program =
  tc_linear
  @ [
      rule
        (atom "unreach" [ var "X"; var "Y" ])
        [
          Pos (atom "node" [ var "X" ]);
          Pos (atom "node" [ var "Y" ]);
          Neg (atom "path" [ var "X"; var "Y" ]);
        ];
      rule
        (atom "lonely" [ var "X"; var "Y" ])
        [ Pos (atom "unreach" [ var "X"; var "Y" ]) ];
    ]

let negation_aggs =
  [ ("lonely", { Agg.group = [ 0 ]; value = 1; op = Agg.Count }) ]

let check_negation_seed seed =
  let rng = Rng.create seed in
  let gseed = Rng.int rng 1_000_000 in
  let nodes = 4 + Rng.int rng 9 in
  let edges = nodes + Rng.int rng 21 in
  let rel = Graph_gen.random_graph ~seed:gseed ~nodes ~edges in
  let msg =
    Fmt.str "seed %d: negation(graph seed=%d nodes=%d edges=%d)" seed gseed
      nodes edges
  in
  (* reachability by iterating the edge list; complement over the nodes *)
  let reach = Hashtbl.create 64 in
  let pairs = ref [] in
  Relation.iter
    (fun t -> pairs := (Tuple.get t 0, Tuple.get t 1) :: !pairs)
    rel;
  List.iter (fun p -> Hashtbl.replace reach p ()) !pairs;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun (a, b) () ->
        List.iter
          (fun (b', c) ->
            if Value.equal b b' && not (Hashtbl.mem reach (a, c)) then begin
              Hashtbl.replace reach (a, c) ();
              changed := true
            end)
          !pairs)
      (Hashtbl.copy reach)
  done;
  let node_vals = List.init nodes Graph_gen.node in
  let unreach_expected =
    List.fold_left
      (fun acc x ->
        List.fold_left
          (fun acc y ->
            if Hashtbl.mem reach (x, y) then acc
            else TS.add (Tuple.of_list [ x; y ]) acc)
          acc node_vals)
      TS.empty node_vals
  in
  let lonely_expected =
    List.fold_left
      (fun acc x ->
        let n =
          List.length
            (List.filter
               (fun y -> not (Hashtbl.mem reach (x, y)))
               node_vals)
        in
        if n = 0 then acc else TS.add (Tuple.of_list [ x; Value.Int n ]) acc)
      TS.empty node_vals
  in
  let edb =
    Facts.add_set
      (edb_of_relation "edge" rel)
      "node"
      (List.fold_left
         (fun acc v -> TS.add (Tuple.make1 v) acc)
         TS.empty node_vals)
  in
  Alcotest.check facts_testable (msg ^ ": stratified NOT = complement")
    unreach_expected
    (Seminaive.query ~aggs:negation_aggs negation_program edb "unreach");
  Alcotest.check facts_testable (msg ^ ": COUNT above NOT = brute force")
    lonely_expected
    (Seminaive.query ~aggs:negation_aggs negation_program edb "lonely")

(* One seeded pass over all three; the CI aggregate-oracle step runs
   this under DC_DOMAINS=4. *)
let check_agg_seed seed =
  check_shortest_path_seed seed;
  check_bom_rollup_seed seed;
  check_negation_seed seed

(* ------------------------------------------------------------------ *)
(* Shipped example programs, for tests that drive them through another
   front end (sessions, the wire).  [dune runtest] copies examples/ next
   to the test directory; [dune exec] runs from the source root. *)

let example_source base =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "../examples" base; Filename.concat "examples" base ]
  in
  In_channel.with_open_text path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Constructor fixpoint work *)

(* The counted work of one [Fixpoint] run: every field of its stats but
   the wall times.  Two runs that must do the same work compare equal
   on this string. *)
let fixpoint_work (st : Dc_core.Fixpoint.stats) =
  Fmt.str "rounds=%d apps=%d body_evals=%d produced=%d derived=%d deltas=[%s]"
    st.rounds st.applications st.body_evaluations st.tuples_produced
    st.tuples_derived
    (String.concat ";" (List.map string_of_int st.round_deltas))

(* The paper's 3.1 scene as a database defining the mutually recursive
   ahead/above system; query it with [scene_query]. *)
let scene_db depth =
  let open Dc_core in
  let infront, ontop = Graph_gen.scene ~depth ~stack:3 in
  let db = Database.create () in
  Database.declare db "Infront" (Constructor.infront_schema Value.TStr);
  Database.declare db "Ontop" (Constructor.ontop_schema Value.TStr);
  Database.set db "Infront" infront;
  Database.set db "Ontop" ontop;
  let ahead, above = Constructor.ahead_above () in
  Database.define_constructors db [ ahead; above ];
  db

let scene_query =
  Dc_calculus.Ast.(
    Construct (Rel "Infront", "ahead", [ Arg_range (Rel "Ontop") ]))

(* ------------------------------------------------------------------ *)
(* A recursion that is no closure *)

(* Pairs joined by a path of even length, over a binary relation with
   columns src and dst: recursive, but its step joins three relations,
   so the planner's regular-system recogniser declines it and it keeps the
   constructor fixpoint (nothing bound) and the capture rule (a column
   bound).  [even_paths_source] is the same constructor in DBPL, over a
   relation type named [e]. *)
let even_paths () =
  let open Dc_calculus.Ast in
  let hop x y = eq (field x "dst") (field y "src") in
  {
    (Dc_core.Constructor.transitive_closure ~name:"even" ()) with
    Dc_calculus.Defs.con_body =
      [
        branch
          [ ("e", Rel "Rel"); ("f", Rel "Rel") ]
          ~target:[ field "e" "src"; field "f" "dst" ]
          ~where:(hop "e" "f");
        branch
          [ ("e", Rel "Rel"); ("f", Rel "Rel"); ("p", Construct (Rel "Rel", "even", [])) ]
          ~target:[ field "e" "src"; field "p" "dst" ]
          ~where:(conj (hop "e" "f") (hop "f" "p"));
      ];
  }

let even_paths_source =
  {|CONSTRUCTOR even FOR Rel: e (): e;
    BEGIN <f.src, g.dst> OF EACH f IN Rel, EACH g IN Rel: f.dst = g.src,
          <f.src, p.dst> OF EACH f IN Rel, EACH g IN Rel, EACH p IN Rel{even}:
            f.dst = g.src AND g.dst = p.src
    END even;|}
