(* Differential update streams for the live-view subsystem (lib/ivm).

   Each workload (transitive closure, same-generation, mutual recursion,
   bill-of-materials, even-length paths) is set up through
   [Translate.to_constructors] over the oracle program shapes,
   materialized with [Ivm.materialize], and then driven by a seeded
   random stream of interleaved INSERT/DELETE steps.  After every step
   the maintained extent must equal a from-scratch semi-naive refixpoint
   of the original rules over the mutated base relations.  The closures
   and the §3.1 scene's two-state system are maintained by re-traversal;
   the other recursive views by DRed, whose every recursive predicate's
   derivation counts must also equal a recount of its rule instances
   over the view's store.  Every failure message carries the seed, so
   any divergence reproduces deterministically.

   Also here: abort atomicity of maintenance under injected
   [Guard.Exhausted] faults (the update and the view roll back to the
   pre-update snapshot), the Facts deletion regression (cached indexes
   must forget removed tuples), the surface-DELETE stale-read
   regression (maintenance off must not serve a stale extent), and the
   restore of checkpoints: one without recursive counts, and one of a
   closure view written while DRed maintained it. *)

open Dc_relation
open Dc_datalog
module Ast = Dc_calculus.Ast
module Database = Dc_core.Database
module Ivm = Dc_ivm.Ivm
module Guard = Dc_guard.Guard
module Obs = Dc_obs.Obs
module Rng = Dc_workload.Rng
module Graph_gen = Dc_workload.Graph_gen
module Bom_gen = Dc_workload.Bom_gen
module TS = Facts.TS

let ts_of_relation rel = Relation.fold TS.add rel TS.empty
let unary_schema = Schema.make [ ("x", Value.TStr) ]

(* ------------------------------------------------------------------ *)
(* Workloads *)

type workload = {
  w_name : string;
  w_program : Syntax.program; (* oracle rules, original predicate names *)
  w_pred : string; (* root IDB predicate = constructor name *)
  w_edb : (string * Schema.t) list; (* updatable base relations *)
  w_idb : (string * Schema.t) list;
  w_init : Rng.t -> (string * Relation.t) list;
  w_random : Rng.t -> string -> Tuple.t; (* a random tuple for a base *)
}

let nodes = 10
let rand_node_of rng n = Graph_gen.node (Rng.int rng n)
let rand_node rng = rand_node_of rng nodes
let rand_pair rng _ = Tuple.of_list [ rand_node rng; rand_node rng ]

let graph_workload =
  {
    w_name = "graph";
    w_program = Oracle.tc_nonlinear;
    w_pred = "path";
    w_edb = [ ("edge", Graph_gen.edge_schema) ];
    w_idb = [ ("path", Graph_gen.edge_schema) ];
    w_init =
      (fun rng ->
        let seed = Rng.int rng 1_000_000 in
        [ ("edge", Graph_gen.random_graph ~seed ~nodes ~edges:(2 * nodes)) ]);
    w_random = rand_pair;
  }

let sg_workload =
  {
    w_name = "sg";
    w_program = Oracle.sg_program;
    w_pred = "sg";
    w_edb =
      [
        ("up", Graph_gen.edge_schema);
        ("flat", Graph_gen.edge_schema);
        ("down", Graph_gen.edge_schema);
      ];
    w_idb = [ ("sg", Graph_gen.edge_schema) ];
    w_init =
      (fun rng ->
        let g () =
          Graph_gen.random_graph ~seed:(Rng.int rng 1_000_000) ~nodes
            ~edges:(nodes + Rng.int rng 6)
        in
        [ ("up", g ()); ("flat", g ()); ("down", g ()) ]);
    w_random = rand_pair;
  }

let mutual_workload =
  {
    w_name = "mutual";
    w_program = Oracle.mutual_program;
    w_pred = "even";
    w_edb = [ ("edge", Graph_gen.edge_schema); ("start", unary_schema) ];
    w_idb = [ ("even", unary_schema); ("odd", unary_schema) ];
    w_init =
      (fun rng ->
        let seed = Rng.int rng 1_000_000 in
        [
          ("edge", Graph_gen.random_graph ~seed ~nodes ~edges:(2 * nodes));
          ( "start",
            Relation.of_list unary_schema [ Tuple.make1 (rand_node rng) ] );
        ]);
    w_random =
      (fun rng pred ->
        if String.equal pred "start" then Tuple.make1 (rand_node rng)
        else rand_pair rng pred);
  }

let parts = 9

let bom_workload =
  {
    w_name = "bom";
    w_program = Oracle.bom_program;
    w_pred = "reach";
    w_edb = [ ("contains", Bom_gen.contains_schema) ];
    w_idb = [ ("reach", Graph_gen.edge_schema) ];
    w_init =
      (fun rng ->
        [
          ( "contains",
            Bom_gen.hierarchy ~seed:(Rng.int rng 1_000_000) ~levels:3 ~width:3
              ~uses:2 );
        ]);
    w_random =
      (fun rng _ ->
        Tuple.of_list
          [
            Bom_gen.part (Rng.int rng parts);
            Bom_gen.part (Rng.int rng parts);
            Value.Int (1 + Rng.int rng 4);
          ]);
  }

(* Pairs an even number of edges apart over the same cyclic graphs as
   [graph_workload]: a recursive view the traversal does not take, so
   DRed over cycles, self-loops included, keeps its stream. *)
let even_workload =
  {
    graph_workload with
    w_name = "even paths";
    w_program = Oracle.even_paths_program;
    w_pred = "even";
    w_idb = [ ("even", Graph_gen.edge_schema) ];
  }

let workloads = [ graph_workload; sg_workload; mutual_workload; bom_workload ]

(* The served closure view's shape, scaled down: chains with forward
   shortcuts under right- and left-linear transitive closure.  Random
   steps delete existing edges and insert forward edges — from position
   p of one chain to a later position of any chain, bridges included —
   so the graph stays acyclic, as in the served workload. *)
let dag_chains = 4
let dag_len = 8

let dag_edges, dag_at =
  Graph_gen.chains_dag ~seed:17 ~chains:dag_chains ~len:dag_len ~edges:40

let dag_workload name program =
  {
    w_name = name;
    w_program = program;
    w_pred = "path";
    w_edb = [ ("edge", Graph_gen.edge_schema) ];
    w_idb = [ ("path", Graph_gen.edge_schema) ];
    w_init = (fun _ -> [ ("edge", dag_edges) ]);
    w_random =
      (fun rng _ ->
        let p = Rng.int rng (dag_len - 1) in
        let q = p + 1 + Rng.int rng (dag_len - p - 1) in
        Tuple.of_list
          [
            Graph_gen.node (dag_at (Rng.int rng dag_chains) p);
            Graph_gen.node (dag_at (Rng.int rng dag_chains) q);
          ]);
  }

let dag_right = dag_workload "dag right-linear" Oracle.tc_linear
let dag_left = dag_workload "dag left-linear" Oracle.tc_left_linear
let dag_workloads = [ dag_right; dag_left ]

(* A non-recursive view: two-hop paths, maintained by derivation
   counting rather than DRed. *)
let twohop_workload =
  let v = Syntax.var in
  {
    graph_workload with
    w_name = "twohop counting";
    w_program =
      Syntax.
        [
          rule
            (atom "hop" [ v "X"; v "Z" ])
            [
              Pos (atom "edge" [ v "X"; v "Y" ]);
              Pos (atom "edge" [ v "Y"; v "Z" ]);
            ];
        ];
    w_pred = "hop";
    w_idb = [ ("hop", Graph_gen.edge_schema) ];
  }

(* ------------------------------------------------------------------ *)
(* Setup and the differential step driver *)

let setup w init =
  let db = Database.create () in
  List.iter (fun (n, s) -> Database.declare db n s) w.w_edb;
  List.iter (fun (n, rel) -> Database.set db n rel) init;
  let schema_of p =
    match List.assoc_opt p (w.w_edb @ w.w_idb) with
    | Some s -> s
    | None -> Alcotest.failf "no schema for predicate %s" p
  in
  let defs, bottoms = Translate.to_constructors schema_of w.w_program in
  List.iter (fun (n, s) -> Database.declare db n s) bottoms;
  Database.define_constructors db defs;
  let view =
    Ivm.materialize db ~constructor:w.w_pred
      ~base:("__bottom_" ^ w.w_pred)
      ~args:[]
  in
  (db, view)

(* The independent oracle: semi-naive over the ORIGINAL rules and names,
   against the base relations as the database currently holds them. *)
let oracle db w =
  let edb =
    List.fold_left
      (fun acc (p, _) -> Facts.of_relation p (Database.get db p) acc)
      (Facts.empty ()) w.w_edb
  in
  Seminaive.query w.w_program edb w.w_pred

type step = {
  st_op : string; (* "INSERT" | "DELETE" *)
  st_pred : string;
  st_tuple : Tuple.t;
}

(* Pick and apply one random step; returns its description.  Deletions
   target existing tuples, so nearly every step is a real change. *)
let random_step rng db w =
  let pred, _ = Rng.pick rng w.w_edb in
  let rel = Database.get db pred in
  if Relation.cardinal rel > 0 && Rng.bool rng 0.45 then begin
    let ts = Relation.to_list rel in
    let t = List.nth ts (Rng.int rng (List.length ts)) in
    Database.delete db pred t;
    { st_op = "DELETE"; st_pred = pred; st_tuple = t }
  end
  else begin
    let t = w.w_random rng pred in
    Database.insert db pred t;
    { st_op = "INSERT"; st_pred = pred; st_tuple = t }
  end

let check_extent ~seed w view expected step i =
  let got = ts_of_relation (Ivm.value view) in
  if not (TS.equal expected got) then
    Alcotest.failf
      "seed %d %s: step %d (%s %s %a): maintained extent diverged: %d \
       maintained vs %d refixpoint tuples"
      seed w.w_name i step.st_op step.st_pred Tuple.pp step.st_tuple
      (TS.cardinal got) (TS.cardinal expected)

(* ------------------------------------------------------------------ *)
(* Maintained derivation counts = recounted ones

   The count of a recursive predicate's tuple is the number of one-step
   rule instances deriving it.  [recount] counts them over the view's
   store with a nested-loop join written here, independent of the
   engine's pipelines; after every step the maintained counts must equal
   it. *)

module SM = Map.Make (String)

let recursive_preds program =
  List.concat (List.filter (Stratify.recursive program) (Stratify.sccs program))

let recount program store =
  let recursive = recursive_preds program in
  let tuples p = Option.value (List.assoc_opt p store) ~default:[] in
  let value env = function
    | Syntax.Var v -> SM.find v env
    | Syntax.Const c -> c
    | Syntax.Binop _ -> Alcotest.fail "computed term in a maintained rule"
  in
  let rec unify env i args t =
    match args with
    | [] -> Some env
    | Syntax.Var v :: rest when not (SM.mem v env) ->
      unify (SM.add v (Tuple.get t i) env) (i + 1) rest t
    | a :: rest ->
      if Value.equal (value env a) (Tuple.get t i) then unify env (i + 1) rest t
      else None
  in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (r : Syntax.rule) ->
      let rec go env = function
        | [] ->
          let key =
            (r.head.pred, Tuple.of_list (List.map (value env) r.head.args))
          in
          Hashtbl.replace counts key
            (1 + Option.value (Hashtbl.find_opt counts key) ~default:0)
        | Syntax.Pos a :: rest ->
          List.iter
            (fun t -> Option.iter (fun env -> go env rest) (unify env 0 a.args t))
            (tuples a.pred)
        | Syntax.Test (op, x, y) :: rest ->
          if Dc_calculus.Eval.eval_cmp op (value env x) (value env y) then
            go env rest
        | Syntax.Neg _ :: _ -> Alcotest.fail "negation in a maintained rule"
      in
      (* positive atoms first, so every test meets bound variables *)
      if List.mem r.head.pred recursive then
        go SM.empty
          (List.filter (function Syntax.Pos _ -> true | _ -> false) r.body
          @ List.filter (function Syntax.Pos _ -> false | _ -> true) r.body))
    program;
  Hashtbl.fold (fun (p, t) n acc -> (p, t, n) :: acc) counts []

let key_compare (p, t, _) (q, u, _) =
  match String.compare p q with 0 -> Tuple.compare t u | c -> c

(* An uncounted view (no update since MATERIALIZE or restore) must hold
   no recursive counts at all. *)
let check_counts what view =
  let recursive = recursive_preds (Ivm.program view) in
  let maintained =
    List.concat_map
      (fun (p, rows) ->
        if List.mem p recursive then List.map (fun (t, n) -> (p, t, n)) rows
        else [])
      (Ivm.support_counts view)
  in
  let expected =
    if Ivm.counts_built view then
      recount (Ivm.program view) (Ivm.dump view).Ivm.dp_store
    else []
  in
  let differs (p, t, n) m =
    Some (Fmt.str "%s%a maintained %d, recounted %d" p Tuple.pp t n m)
  in
  let rec first_diff = function
    | [], [] -> None
    | x :: _, [] -> differs x 0
    | [], (p, t, m) :: _ -> differs (p, t, 0) m
    | ((_, _, n) as x) :: a, ((p, t, m) as y) :: b -> (
      match key_compare x y with
      | 0 -> if n = m then first_diff (a, b) else differs x m
      | c when c < 0 -> differs x 0
      | _ -> differs (p, t, 0) m)
  in
  match
    first_diff
      (List.sort key_compare maintained, List.sort key_compare expected)
  with
  | None -> ()
  | Some diff -> Alcotest.failf "%s: derivation counts diverged: %s" what diff

(* counts first: a count gone wrong is what a wrong extent follows from *)
let check_step ~seed w view db step i =
  check_counts
    (Fmt.str "seed %d %s: step %d (%s %s %a)" seed w.w_name i step.st_op
       step.st_pred Tuple.pp step.st_tuple)
    view;
  check_extent ~seed w view (oracle db w) step i

(* The first step builds the counts inside its update; [check_step]
   only reads them. *)
let run_stream ~seed ~steps w =
  let rng = Rng.create seed in
  let db, view = setup w (w.w_init rng) in
  check_extent ~seed w view (oracle db w)
    { st_op = "MATERIALIZE"; st_pred = w.w_pred; st_tuple = Tuple.of_list [] }
    0;
  for i = 1 to steps do
    let step = random_step rng db w in
    check_step ~seed w view db step i
  done

(* >= 1000 interleaved INSERT/DELETE steps per workload *)
let test_update_stream w () = run_stream ~seed:20260806 ~steps:1000 w

(* qcheck variant: short streams over random seeds *)
let prop_stream w =
  QCheck.Test.make
    ~name:(Fmt.str "ivm %s stream = refixpoint" w.w_name)
    ~count:12 QCheck.small_nat
    (fun seed ->
      run_stream ~seed ~steps:25 w;
      true)

(* ------------------------------------------------------------------ *)
(* Abort atomicity under injected faults *)

let counts_equal =
  List.equal (fun (p, rows) (q, rows') ->
      String.equal p q
      && List.equal
           (fun (t, n) (u, m) -> Tuple.equal t u && n = m)
           rows rows')

let with_failpoints f =
  Guard.Failpoint.reset ();
  Fun.protect ~finally:Guard.Failpoint.reset f

let is_traversal view =
  String.starts_with ~prefix:"traversal" (Ivm.plan_kind view)

(* Arm a maintenance-pipeline failpoint, apply a real update, and verify
   the abort left both the base relation and the maintained extent at
   the pre-update snapshot — then that the stream keeps maintaining
   correctly afterwards.  A traversal view also takes the fault at the
   first row its re-traversal emits, where the guard is ticked, after an
   insertion, whose tail re-emits at least the inserted edge. *)
let test_abort_atomicity w () =
  with_failpoints @@ fun () ->
  let seed = 77_2026 in
  let rng = Rng.create seed in
  let db, view = setup w (w.w_init rng) in
  for i = 1 to 40 do
    if i mod 4 = 0 then begin
      (* inject: alternate between the commit point and mid-propagation *)
      let site =
        if i mod 8 = 0 then "ivm.commit"
        else if is_traversal view && i mod 16 = 4 then "exec.row"
        else "ivm.round"
      in
      let pred, _ = Rng.pick rng w.w_edb in
      let before_base = ts_of_relation (Database.get db pred) in
      let before_view = ts_of_relation (Ivm.value view) in
      let before_counts = Ivm.support_counts view in
      let rel = Database.get db pred in
      let apply =
        if Relation.cardinal rel > 0 && site <> "exec.row" && Rng.bool rng 0.5
        then begin
          let ts = Relation.to_list rel in
          let t = List.nth ts (Rng.int rng (List.length ts)) in
          fun () -> Database.delete db pred t
        end
        else begin
          (* a guaranteed-fresh tuple, so the step is a real change and
             the maintenance pipeline definitely runs *)
          let rec fresh () =
            let t = w.w_random rng pred in
            if Relation.mem t rel then fresh () else t
          in
          let t = fresh () in
          fun () -> Database.insert db pred t
        end
      in
      Guard.Failpoint.arm site 1;
      (match apply () with
      | () ->
        if !Guard.Failpoint.armed then
          Alcotest.failf "seed %d %s: step %d: %s never hit" seed w.w_name i
            site;
        Guard.Failpoint.reset ()
      | exception Guard.Exhausted (Guard.Fault_injected s, _) ->
        Alcotest.(check string)
          (Fmt.str "seed %d %s: step %d: fault site" seed w.w_name i)
          site s;
        let after_base = ts_of_relation (Database.get db pred) in
        if not (TS.equal before_base after_base) then
          Alcotest.failf
            "seed %d %s: step %d: aborted %s left the base relation %s \
             changed (%d -> %d tuples)"
            seed w.w_name i site pred (TS.cardinal before_base)
            (TS.cardinal after_base);
        let after_view = ts_of_relation (Ivm.value view) in
        if not (TS.equal before_view after_view) then
          Alcotest.failf
            "seed %d %s: step %d: aborted %s left the maintained extent \
             changed (%d -> %d tuples)"
            seed w.w_name i site (TS.cardinal before_view)
            (TS.cardinal after_view);
        if not (counts_equal (Ivm.support_counts view) before_counts) then
          Alcotest.failf
            "seed %d %s: step %d: aborted %s left the derivation counts \
             changed"
            seed w.w_name i site);
      Guard.Failpoint.reset ()
    end
    else begin
      let step = random_step rng db w in
      check_step ~seed w view db step i
    end
  done

(* ------------------------------------------------------------------ *)
(* Facts deletion regression (the delta-index maintenance fix) *)

let t2 a b = Tuple.of_list [ Value.str a; Value.str b ]

let test_facts_remove_indexes () =
  let store =
    Facts.of_list
      [ ("e", t2 "a" "b"); ("e", t2 "a" "c"); ("e", t2 "b" "c") ]
  in
  (* force an index on position 0, then delete through the owning store *)
  let probe st key =
    List.length (Facts.lookup st "e" [ 0 ] (Tuple.make1 (Value.str key)))
  in
  Alcotest.(check int) "warm index: a" 2 (probe store "a");
  let store' = Facts.remove store "e" (t2 "a" "c") in
  Alcotest.(check int) "after remove: a" 1 (probe store' "a");
  Alcotest.(check bool) "membership gone" false (Facts.mem store' "e" (t2 "a" "c"));
  (* the older snapshot still sees the tuple (persistent value) *)
  Alcotest.(check int) "old snapshot unchanged" 2 (probe store "a");
  (* set removal, including keys that vanish entirely *)
  let store'' = Facts.remove_set store' "e" (TS.of_list [ t2 "a" "b"; t2 "b" "c" ]) in
  Alcotest.(check int) "after remove_set: a" 0 (probe store'' "a");
  Alcotest.(check int) "after remove_set: b" 0 (probe store'' "b");
  Alcotest.(check int) "cardinal" 0 (Facts.cardinal store'' "e");
  (* removing an absent tuple is a no-op *)
  let store3 = Facts.remove store'' "e" (t2 "z" "z") in
  Alcotest.(check int) "no-op remove" 0 (Facts.cardinal store3 "e")

(* ------------------------------------------------------------------ *)
(* Surface wiring: MATERIALIZE / SET MAINTAIN / EXPLAIN ANALYZE DELETE *)

(* the right-linear closure over Edge *)
let tc_decls =
  {|
TYPE node = STRING;
TYPE edgerel = RELATION a, b OF RECORD a, b: node END;
VAR Edge: edgerel;
CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <e.a, p.b> OF EACH e IN Rel, EACH p IN Rel{tc()}: e.b = p.a
END tc;
|}

let tc_surface =
  tc_decls
  ^ {|INSERT Edge VALUES ("a", "b"), ("b", "c"), ("c", "d");
MATERIALIZE Edge{tc()};
|}

(* pairs an even number of edges apart over Edge: DRed maintains it *)
let even_decl =
  {|CONSTRUCTOR even FOR Rel: edgerel (): edgerel;
BEGIN <f.a, g.b> OF EACH f IN Rel, EACH g IN Rel: f.b = g.a,
      <f.a, p.b> OF EACH f IN Rel, EACH g IN Rel, EACH p IN Rel{even()}:
        f.b = g.a AND g.b = p.a
END even;
|}

let run_more db src = snd (Dc_lang.Elaborate.run_string ~db src)

let contains_s s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

let query_tc db =
  ts_of_relation (Database.query db (Ast.Construct (Ast.Rel "Edge", "tc", [])))

(* surface DELETE drives maintenance end-to-end *)
let test_surface_materialize_output () =
  let _db, out = Dc_lang.Elaborate.run_string tc_surface in
  Alcotest.(check bool)
    "materialize reported" true
    (contains_s out "view tc__Edge")

let test_surface_delete () =
  let db, _ = Dc_lang.Elaborate.run_string tc_surface in
  Alcotest.(check int) "initial extent" 6 (TS.cardinal (query_tc db));
  let _ = run_more db {|DELETE Edge VALUES ("b", "c");|} in
  Alcotest.check
    (Alcotest.testable (Fmt.Dump.list Tuple.pp) (List.equal Tuple.equal))
    "after DELETE"
    [ t2 "a" "b"; t2 "c" "d" ]
    (TS.elements (query_tc db))

(* A multi-row DELETE is one statement and one commit: a fault at the
   commit point leaves every row (and the view) as it was and publishes
   nothing, and without the fault the statement publishes exactly one
   version — so a schedule armed at the commit point's second hit is
   never reached.  Row by row, that hit would land mid-statement and
   leave a published, half-applied DELETE. *)
let test_surface_multi_row_delete () =
  let delete = {|DELETE Edge VALUES ("a", "b"), ("b", "c"), ("c", "d");|} in
  let db, _ = Dc_lang.Elaborate.run_string tc_surface in
  let rows = Database.get db "Edge" and tc = query_tc db in
  let v0 = Database.version db in
  with_failpoints @@ fun () ->
  Guard.Failpoint.arm "ivm.commit" 1;
  (match run_more db delete with
  | _ -> Alcotest.fail "ivm.commit never hit"
  | exception Guard.Exhausted (Guard.Fault_injected "ivm.commit", _) -> ());
  Alcotest.(check int) "faulted: all 3 rows kept" (Relation.cardinal rows)
    (Relation.cardinal (Database.get db "Edge"));
  Alcotest.(check bool) "faulted: view extent kept" true
    (TS.equal tc (query_tc db));
  Alcotest.(check int) "faulted: no version published" v0
    (Database.version db);
  Guard.Failpoint.arm "ivm.commit" 2;
  (match run_more db delete with
  | _ -> ()
  | exception Guard.Exhausted (Guard.Fault_injected "ivm.commit", _) ->
    Alcotest.failf
      "the statement reached the commit point twice: %d of 3 rows left, \
       %d version(s) published"
      (Relation.cardinal (Database.get db "Edge"))
      (Database.version db - v0));
  Alcotest.(check (list (pair string int)))
    "one commit-point hit" [ ("ivm.commit", 1) ] (Guard.Failpoint.pending ());
  Alcotest.(check int) "exactly one version published" (v0 + 1)
    (Database.version db);
  Alcotest.(check int) "all 3 rows deleted" 0
    (Relation.cardinal (Database.get db "Edge"));
  Alcotest.(check int) "view maintained" 0 (TS.cardinal (query_tc db))

(* stale-read regression: with maintenance off, an update must not leave
   the old extent being served *)
let test_stale_read () =
  let db, _ = Dc_lang.Elaborate.run_string tc_surface in
  let _ = run_more db {|SET MAINTAIN OFF;
DELETE Edge VALUES ("b", "c");|} in
  Alcotest.(check int) "refreshed, not stale" 2 (TS.cardinal (query_tc db));
  (* and turning maintenance back on resumes incremental updates *)
  let _ = run_more db {|SET MAINTAIN ON;
INSERT Edge VALUES ("b", "c");|} in
  Alcotest.(check int) "maintained again" 6 (TS.cardinal (query_tc db))

(* EXPLAIN ANALYZE on an update prints the maintenance pipeline of every
   view over the relation: the closure's re-traversal, and DRed's phases
   for the even-path view *)
let test_explain_analyze_update () =
  let db, _ =
    Dc_lang.Elaborate.run_string
      (tc_decls ^ even_decl
     ^ {|INSERT Edge VALUES ("a", "b"), ("b", "c"), ("c", "d");
MATERIALIZE Edge{tc()};
MATERIALIZE Edge{even()};
|})
  in
  let out = run_more db {|EXPLAIN ANALYZE DELETE Edge VALUES ("b", "c");|} in
  List.iter
    (fun affix ->
      Alcotest.(check bool)
        (Fmt.str "report mentions %S" affix)
        true (contains_s out affix))
    [
      "EXPLAIN ANALYZE DELETE Edge";
      "view tc__Edge (traversal)";
      "affected sources";
      "re-traverse";
      "replace rows";
      "view even__Edge (incremental)";
      "overdelete";
      "rederive";
      "insert";
    ]

(* ------------------------------------------------------------------ *)
(* Maintenance does not depend on the parallel degree

   Every maintenance pass runs on the calling domain, so an update
   stream run at degree 1 and at degree 4 with the sequential cutoff
   floored (which would shard any pass that still could) must give the
   same extents and the same reports: phase labels and tuple counts. *)

let at_degree p f =
  Dc_par.Par.with_domains p (fun () -> Dc_par.Par.with_seq_cutoff 1 f)

(* what a report shows a user, timings aside *)
let report_shape (rp : Ivm.report) =
  Fmt.str "%s (%s) +%d/-%d: %s" rp.Ivm.rp_view rp.Ivm.rp_mode rp.Ivm.rp_plus
    rp.Ivm.rp_minus
    (String.concat "; "
       (List.rev_map
          (fun ph -> Fmt.str "%s %d" ph.Ivm.ph_label ph.Ivm.ph_tuples)
          rp.Ivm.rp_phases))

(* per step: its description, the extent after it, its reports *)
let stream_trace ~seed ~steps w =
  let rng = Rng.create seed in
  let db, view = setup w (w.w_init rng) in
  let trace = ref [] in
  for _ = 1 to steps do
    Ivm.reset_reports ();
    let step = random_step rng db w in
    trace :=
      ( Fmt.str "%s %s%a" step.st_op step.st_pred Tuple.pp step.st_tuple,
        ts_of_relation (Ivm.value view),
        List.map report_shape (Ivm.reports ()) )
      :: !trace
  done;
  List.rev !trace

let test_degree_independent_stream w () =
  let seed = 20261017 in
  let run p = at_degree p (fun () -> stream_trace ~seed ~steps:300 w) in
  List.iteri
    (fun i ((op, ext1, reports1), (_, ext4, reports4)) ->
      let msg what =
        Fmt.str "seed %d %s: step %d (%s): %s" seed w.w_name (i + 1) op what
      in
      if not (TS.equal ext1 ext4) then
        Alcotest.failf "%s" (msg "extent differs at degree 4");
      Alcotest.(check (list string)) (msg "reports") reports1 reports4)
    (List.combine (run 1) (run 4))

(* The surface form: a 24-node ring n_i -> n_(i+1) with chords
   n_i -> n_(i+5) for i divisible by 3, the right-linear closure and the
   even-path view materialized, and one ring edge deleted under EXPLAIN
   ANALYZE.  The reports' tuple counts must not depend on SET
   PARALLEL. *)
let ring_surface =
  let edges =
    List.init 24 (fun i -> (i, (i + 1) mod 24))
    @ List.filter_map
        (fun i -> if i mod 3 = 0 then Some (i, (i + 5) mod 24) else None)
        (List.init 24 Fun.id)
  in
  tc_decls ^ even_decl
  ^ Fmt.str
      "INSERT Edge VALUES %s;\nMATERIALIZE Edge{tc()};\nMATERIALIZE Edge{even()};\n"
      (String.concat ", "
         (List.map (fun (a, b) -> Fmt.str {|("n%d", "n%d")|} a b) edges))

(* an EXPLAIN ANALYZE report line with its timing cut off *)
let untimed line =
  let cut_after sub =
    let n = String.length line and m = String.length sub in
    let rec find i =
      if i + m > n then None
      else if String.sub line i m = sub then Some (i + m)
      else find (i + 1)
    in
    Option.map (fun j -> String.sub line 0 j) (find 0)
  in
  match cut_after " tuples" with
  | Some l -> l
  | None -> (
    match String.rindex_opt line ';' with
    | Some j -> String.sub line 0 j
    | None -> line)

let test_degree_independent_surface () =
  let explain p =
    let db, _ = Dc_lang.Elaborate.run_string ring_surface in
    (* [with_domains] restores the degree the SET statement changes *)
    Dc_par.Par.with_domains 1 @@ fun () ->
    let out =
      run_more db
        (Fmt.str {|SET PARALLEL %d;
EXPLAIN ANALYZE DELETE Edge VALUES ("n0", "n1");|} p)
    in
    (match Ivm.views db with
    | [ _; _ ] as views ->
      List.iter
        (check_counts (Fmt.str "ring at SET PARALLEL %d" p))
        views
    | vs -> Alcotest.failf "%d views over the ring, expected 2" (List.length vs));
    out
    |> String.split_on_char '\n'
    |> List.filter (fun l -> contains_s l " tuples " || contains_s l "view ")
    |> List.map untimed
  in
  let at1 = explain 1 in
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Fmt.str "the reports show a %s phase" phase)
        true
        (List.exists (fun l -> contains_s l phase) at1))
    [ "re-traverse"; "rederive" ];
  Alcotest.(check (list string)) "EXPLAIN ANALYZE DELETE at SET PARALLEL 1 and 2"
    at1 (explain 2)

(* ------------------------------------------------------------------ *)
(* Restore from checkpoints

   A checkpoint holds no derivation counts of recursive components (nor
   did one written before they kept any).  The first deletion after the
   restore of a DRed view must count them: read as zeros, the DELETE of
   an edge with an alternative path would lose the row the other path
   still derives.  An aborted first update must leave them uncounted, so
   the next one counts them again. *)

(* The application's extent from scratch: a semi-naive run of its Horn
   translation over the database's current relations. *)
let fresh_extent db range =
  let program, pred, aggs =
    Translate.of_application_full
      (Translate.context (Database.typecheck_env db))
      range
  in
  Facts.find
    (Seminaive.run ~aggs program
       (Translate.edb (fun p -> Some (Database.get db p)) program))
    pred

let only_view db =
  match Ivm.views db with
  | [ v ] -> v
  | vs -> Alcotest.failf "%d views, expected 1" (List.length vs)

let test_restore_recounts () =
  let db, _ =
    Dc_lang.Elaborate.run_string
      (tc_decls ^ even_decl
      ^ {|INSERT Edge VALUES ("a", "b"), ("b", "c"), ("a", "x"), ("x", "c"),
                   ("c", "d"), ("d", "e");
MATERIALIZE Edge{even()};
|})
  in
  let view = only_view db in
  let recursive = recursive_preds (Ivm.program view) in
  let d = Ivm.dump view in
  Alcotest.(check (list string)) "recursive counts in the dump" []
    (List.filter (fun p -> List.mem p recursive) (List.map fst d.Ivm.dp_supports));
  Ivm.unregister view;
  let view = Ivm.restore db d in
  Alcotest.(check bool) "restored uncounted" false (Ivm.counts_built view);
  with_failpoints (fun () ->
      Guard.Failpoint.arm "ivm.commit" 1;
      match Database.delete db "Edge" (t2 "a" "b") with
      | () -> Alcotest.fail "ivm.commit never hit"
      | exception Guard.Exhausted (Guard.Fault_injected _, _) -> ());
  Alcotest.(check bool) "uncounted after the aborted DELETE" false
    (Ivm.counts_built view);
  check_counts "after the aborted DELETE" view;
  let _ = run_more db {|DELETE Edge VALUES ("a", "b");|} in
  Alcotest.(check bool) "counted after the DELETE" true (Ivm.counts_built view);
  Alcotest.(check bool) "a -> c still derived through x" true
    (TS.mem (t2 "a" "c") (ts_of_relation (Ivm.value view)));
  Alcotest.(check bool) "extent = fresh evaluation" true
    (TS.equal (ts_of_relation (Ivm.value view))
       (fresh_extent db (Ast.Construct (Ast.Rel "Edge", "even", []))));
  check_counts "after DELETE" view

(* A closure view checkpointed while DRed maintained it holds its base
   relations' copies and derivation counts besides its extent.  Restored
   as a traversal view, it keeps the extent alone and maintains it. *)
let test_restore_dred_checkpoint () =
  let db, _ =
    Dc_lang.Elaborate.run_string
      (tc_decls
      ^ {|INSERT Edge VALUES ("a", "b"), ("b", "c"), ("a", "c"), ("c", "d");
MATERIALIZE Edge{tc()};
|})
  in
  let view = only_view db in
  let d = Ivm.dump view in
  Alcotest.(check (list string)) "a traversal view dumps its extent alone"
    [ Ivm.name view ] (List.map fst d.Ivm.dp_store);
  Alcotest.(check int) "and no derivation counts" 0 (List.length d.Ivm.dp_supports);
  let name = Ivm.name view in
  let extent = List.assoc name d.Ivm.dp_store in
  let older =
    {
      d with
      Ivm.dp_store =
        List.sort
          (fun (p, _) (q, _) -> String.compare p q)
          [ ("Edge", Relation.to_list (Database.get db "Edge")); (name, extent) ];
      dp_supports = [ (name, List.map (fun t -> (t, 1)) extent) ];
    }
  in
  Ivm.unregister view;
  let view = Ivm.restore db older in
  Alcotest.(check bool) "restored as a traversal" true (is_traversal view);
  Alcotest.(check (list string)) "the extent alone adopted" [ name ]
    (List.map fst (Ivm.dump view).Ivm.dp_store);
  Alcotest.(check int) "no derivation counts adopted" 0
    (List.length (Ivm.support_counts view));
  let range = Ast.Construct (Ast.Rel "Edge", "tc", []) in
  let _ = run_more db {|DELETE Edge VALUES ("b", "c");
INSERT Edge VALUES ("d", "a");|} in
  Alcotest.(check bool) "maintained = fresh evaluation" true
    (TS.equal (ts_of_relation (Ivm.value view)) (fresh_extent db range))

(* ------------------------------------------------------------------ *)
(* Live aggregate views under a long update stream (PR 10): three
   aggregate views over one weighted edge relation — SUM with a
   discriminator column, MIN (deletions of the group bound force the
   per-group rescan path), COUNT — maintained through 1000 interleaved
   INSERT/DELETE steps and compared after every step against plain OCaml
   folds over the base extent.  All three must get the incremental
   agg-counting plan, not a recompute fallback. *)

let agg_stream_src =
  {|TYPE wedge  = RELATION src, dst OF RECORD src, dst: STRING; w: INTEGER END;
    TYPE persrc = RELATION src OF RECORD src: STRING; v: INTEGER END;
    VAR E: wedge;
    CONSTRUCTOR total FOR Rel: wedge (): persrc;
    BEGIN <e.src, e.dst, SUM e.w> OF EACH e IN Rel: TRUE GROUP BY e.src
    END total;
    CONSTRUCTOR low FOR Rel: wedge (): persrc;
    BEGIN <e.src, MIN e.w> OF EACH e IN Rel: TRUE GROUP BY e.src
    END low;
    CONSTRUCTOR fan FOR Rel: wedge (): persrc;
    BEGIN <e.src, COUNT e.dst> OF EACH e IN Rel: TRUE GROUP BY e.src
    END fan;|}

(* the oracle: one pass over the base extent per aggregate *)
let agg_expected fold db =
  let groups = Hashtbl.create 16 in
  Relation.iter
    (fun t ->
      let s = Tuple.get t 0 in
      let w = match Tuple.get t 2 with Value.Int n -> n | _ -> assert false in
      Hashtbl.replace groups s (fold w (Hashtbl.find_opt groups s)))
    (Database.get db "E");
  Hashtbl.fold
    (fun s v acc -> TS.add (Tuple.of_list [ s; Value.Int v ]) acc)
    groups TS.empty

let sum_fold w = function Some a -> a + w | None -> w
let min_fold w = function Some a -> min a w | None -> w
let count_fold _ = function Some a -> a + 1 | None -> 1

let agg_nodes = 8

let test_agg_update_stream () =
  let seed = 20260808 in
  let rng = Rng.create seed in
  let db, _ = Dc_lang.Elaborate.run_string agg_stream_src in
  let views =
    List.map
      (fun (con, fold) ->
        let v = Ivm.materialize db ~constructor:con ~base:"E" ~args:[] in
        if not (String.length (Ivm.plan_kind v) >= 11
               && String.sub (Ivm.plan_kind v) 0 11 = "incremental") then
          Alcotest.failf "%s view got plan %S, expected incremental" con
            (Ivm.plan_kind v);
        (con, v, fold))
      [ ("total", sum_fold); ("low", min_fold); ("fan", count_fold) ]
  in
  let check i op =
    List.iter
      (fun (con, v, fold) ->
        let expected = agg_expected fold db in
        let got = ts_of_relation (Ivm.value v) in
        if not (TS.equal expected got) then
          Alcotest.failf
            "seed %d: step %d (%s): %s diverged: %d maintained vs %d oracle \
             tuples"
            seed i op con (TS.cardinal got) (TS.cardinal expected))
      views
  in
  check 0 "MATERIALIZE";
  for i = 1 to 1000 do
    let s = Rng.int rng agg_nodes and d = Rng.int rng agg_nodes in
    let key0 = Graph_gen.node s and key1 = Graph_gen.node d in
    let existing =
      Relation.fold
        (fun t acc ->
          if Value.equal (Tuple.get t 0) key0 && Value.equal (Tuple.get t 1) key1
          then Some t
          else acc)
        (Database.get db "E") None
    in
    let op =
      match existing with
      | Some t ->
        (* the key is taken: delete it — half the time reinserting with a
           fresh weight, so group bounds move in both directions *)
        Database.delete db "E" t;
        if Rng.bool rng 0.5 then begin
          let t' = Tuple.of_list [ key0; key1; Value.Int (1 + Rng.int rng 9) ] in
          Database.insert db "E" t';
          "REPLACE"
        end
        else "DELETE"
      | None ->
        Database.insert db "E"
          (Tuple.of_list [ key0; key1; Value.Int (1 + Rng.int rng 9) ]);
        "INSERT"
    in
    check i op
  done

(* Abort atomicity of the aggregate views: an injected fault in the
   middle of maintenance or at the commit point leaves the base
   relation, every view's extent and every view's raw derivation counts
   exactly as they were. *)
let test_agg_abort_atomicity () =
  with_failpoints @@ fun () ->
  let seed = 20260809 in
  let rng = Rng.create seed in
  let db, _ = Dc_lang.Elaborate.run_string agg_stream_src in
  let views =
    List.map
      (fun con -> Ivm.materialize db ~constructor:con ~base:"E" ~args:[])
      [ "total"; "low"; "fan" ]
  in
  let state () =
    ( ts_of_relation (Database.get db "E"),
      List.map
        (fun v -> (ts_of_relation (Ivm.value v), Ivm.support_counts v))
        views )
  in
  for i = 1 to 60 do
    let key0 = Graph_gen.node (Rng.int rng agg_nodes)
    and key1 = Graph_gen.node (Rng.int rng agg_nodes) in
    let existing =
      Relation.fold
        (fun t acc ->
          if Value.equal (Tuple.get t 0) key0 && Value.equal (Tuple.get t 1) key1
          then Some t
          else acc)
        (Database.get db "E") None
    in
    let apply () =
      match existing with
      | Some t -> Database.delete db "E" t
      | None ->
        Database.insert db "E"
          (Tuple.of_list [ key0; key1; Value.Int (1 + Rng.int rng 9) ])
    in
    if i mod 3 = 0 then begin
      let site = if i mod 6 = 0 then "ivm.commit" else "ivm.round" in
      let base0, views0 = state () in
      Guard.Failpoint.arm site 1;
      (match apply () with
      | () -> Alcotest.failf "seed %d: step %d: %s never hit" seed i site
      | exception Guard.Exhausted (Guard.Fault_injected _, _) -> ());
      Guard.Failpoint.reset ();
      let base1, views1 = state () in
      if not (TS.equal base0 base1) then
        Alcotest.failf "seed %d: step %d: aborted %s changed E" seed i site;
      List.iter2
        (fun (ext0, c0) (ext1, c1) ->
          if not (TS.equal ext0 ext1) then
            Alcotest.failf "seed %d: step %d: aborted %s changed an extent"
              seed i site;
          if not (counts_equal c0 c1) then
            Alcotest.failf
              "seed %d: step %d: aborted %s changed the derivation counts"
              seed i site)
        views0 views1
    end
    else apply ()
  done;
  (* and maintenance stays correct after the aborts *)
  List.iter2
    (fun v fold ->
      if not (TS.equal (agg_expected fold db) (ts_of_relation (Ivm.value v)))
      then Alcotest.failf "seed %d: %s diverged after aborts" seed (Ivm.name v))
    views [ sum_fold; min_fold; count_fold ]

(* The served closure view under bridge toggles: 8 chains of 32 nodes
   with shortcuts, the right-linear surface [tc] (a traversal) or the
   even-path view [even] (DRed^c), and insert/delete pairs of a bridge
   from an even chain's tail into an odd chain.  Each write moves 32 x 8
   closure rows, and no update may build a hash index, over the view's
   own predicate or over [Edge]: leading-column keys are range scans,
   full keys membership tests, and the one other path (the [Edge] probe
   on its target column) stays warm along the chain of stores each
   update extends.  Machine-independent: it counts builds, not time. *)
let bridge_fixture con =
  let edges, at = Graph_gen.chains_dag ~seed:5 ~chains:8 ~len:32 ~edges:384 in
  let db, _ = Dc_lang.Elaborate.run_string (tc_decls ^ even_decl) in
  Database.set db "Edge"
    (Relation.with_schema (Relation.schema (Database.get db "Edge")) edges);
  let view = Ivm.materialize db ~constructor:con ~base:"Edge" ~args:[] in
  let bridge k =
    let a = 2 * (k mod 4) and b = (2 * ((k / 4) mod 4)) + 1 in
    t2 (Graph_gen.node_name (at a 31)) (Graph_gen.node_name (at b 24))
  in
  (db, view, bridge)

(* the maintained views of the bridge fixture, with their routes *)
let bridge_views = [ ("tc", "traversal"); ("even", "incremental") ]

let test_no_view_index_builds () =
  List.iter
    (fun (con, mode) ->
      let db, view, bridge = bridge_fixture con in
      let n0 = Ivm.cardinal view in
      let builds0 = Facts.index_builds (Ivm.name view) in
      let edge_builds0 = Facts.index_builds "Edge" in
      Ivm.reset_reports ();
      for k = 0 to 19 do
        Database.insert db "Edge" (bridge k);
        if con = "tc" then
          Alcotest.(check int) (Fmt.str "bridge %d inserted" k) (n0 + 256)
            (Ivm.cardinal view)
        else
          Alcotest.(check bool) (Fmt.str "%s: bridge %d inserted" con k) true
            (Ivm.cardinal view > n0);
        Database.delete db "Edge" (bridge k);
        Alcotest.(check int) (Fmt.str "%s: bridge %d deleted" con k) n0
          (Ivm.cardinal view)
      done;
      List.iter
        (fun rp -> Alcotest.(check string) (Fmt.str "%s route" con) mode rp.Ivm.rp_mode)
        (Ivm.reports ());
      Alcotest.(check int)
        (Fmt.str "indexes built over %s by 40 updates" (Ivm.name view))
        builds0
        (Facts.index_builds (Ivm.name view));
      Alcotest.(check int)
        (Fmt.str "%s: indexes built over Edge by 40 updates" con)
        edge_builds0 (Facts.index_builds "Edge");
      Alcotest.(check bool) (Fmt.str "%s: extent = fresh evaluation" con) true
        (TS.equal
           (ts_of_relation (Ivm.value view))
           (fresh_extent db (Ast.Construct (Ast.Rel "Edge", con, [])))))
    bridge_views

(* The phases of a maintenance report account for its total: over 64
   bridge toggles their sum is within 10% of the reports' total time
   (a re-traversal takes a fraction of a millisecond, so fewer would let
   one preemption between phases decide).
   The traversal times the affected sources, the re-traversal and the
   replaced rows, and over-deletes and rederives nothing, so DRed's
   counters stay still; DRed^c times its seed, overdelete, rederive,
   propagate, insert and commit phases. *)
let test_phases_add_up () =
  let was = Obs.on () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let counter name = Obs.Counter.value (Obs.Counter.make name) in
  let has_phase rp label =
    List.find_opt (fun ph -> contains_s ph.Ivm.ph_label label) rp.Ivm.rp_phases
  in
  List.iter
    (fun (con, mode) ->
      let db, _, bridge = bridge_fixture con in
      let overdeleted0 = counter "dc_ivm_overdeleted_total"
      and rederived0 = counter "dc_ivm_rederived_total" in
      (* the last 16 reports are kept: collect them every 8 toggles *)
      let rps =
        List.concat_map
          (fun round ->
            Ivm.reset_reports ();
            for k = 8 * round to (8 * round) + 7 do
              Database.insert db "Edge" (bridge k);
              Database.delete db "Edge" (bridge k)
            done;
            Ivm.reports ())
          [ 0; 1; 2; 3 ]
      in
      Alcotest.(check int) (Fmt.str "%s: one report per update" con) 64 (List.length rps);
      List.iter
        (fun rp ->
          Alcotest.(check string) (Fmt.str "%s route" con) mode rp.Ivm.rp_mode;
          if con = "tc" then begin
            List.iter
              (fun (label, tuples) ->
                match has_phase rp label with
                | None -> Alcotest.failf "report lacks a %S phase" label
                | Some ph ->
                  Alcotest.(check int) (Fmt.str "%s tuples" label) tuples ph.Ivm.ph_tuples)
              (* a bridge from an even chain's tail: its 32 nodes
                 re-traverse, and 32 x 8 rows come or go *)
              [ ("affected sources", 32); ("replace rows", 256) ];
            Alcotest.(check int) "net delta" 256 (rp.Ivm.rp_plus + rp.Ivm.rp_minus)
          end
          else
            List.iter
              (fun label ->
                if Option.is_none (has_phase rp label) then
                  Alcotest.failf "%s: report lacks a %S phase" con label)
              [ "seed"; "overdelete"; "rederive"; "propagate"; "insert"; "commit" ])
        rps;
      if con = "tc" then begin
        Alcotest.(check int) "overdeleted counter" overdeleted0
          (counter "dc_ivm_overdeleted_total");
        Alcotest.(check int) "rederived counter" rederived0
          (counter "dc_ivm_rederived_total")
      end;
      let total = List.fold_left (fun acc rp -> acc +. rp.Ivm.rp_ms) 0. rps in
      let phases =
        List.fold_left
          (fun acc rp ->
            List.fold_left (fun acc ph -> acc +. ph.Ivm.ph_ms) acc rp.Ivm.rp_phases)
          0. rps
      in
      if phases < 0.9 *. total || phases > total then
        Alcotest.failf "%s: phases sum to %.3f ms of the reports' %.3f ms" con phases
          total)
    bridge_views

(* ------------------------------------------------------------------ *)
(* Routes and the two-state stream *)

(* The §3.1 scene: [Infront{ahead(Ontop)}] is a two-state system over
   two labels. *)
let scene_decls =
  {|TYPE node = STRING;
TYPE infrontrel = RELATION front, back OF RECORD front, back: node END;
TYPE ontoprel = RELATION top, base OF RECORD top, base: node END;
TYPE aheadrel = RELATION head, tail OF RECORD head, tail: node END;
TYPE aboverel = RELATION high, low OF RECORD high, low: node END;
VAR Infront: infrontrel;
VAR Ontop: ontoprel;
CONSTRUCTOR ahead FOR Rel: infrontrel (Ontop: ontoprel): aheadrel;
BEGIN EACH r IN Rel: TRUE,
      <r.front, ah.tail> OF EACH r IN Rel, EACH ah IN Rel{ahead(Ontop)}:
        r.back = ah.head,
      <r.front, ab.low> OF EACH r IN Rel, EACH ab IN Ontop{above(Rel)}:
        r.back = ab.high
END ahead;
CONSTRUCTOR above FOR Rel: ontoprel (Infront: infrontrel): aboverel;
BEGIN EACH r IN Rel: TRUE,
      <r.top, ab.low> OF EACH r IN Rel, EACH ab IN Rel{above(Infront)}:
        r.base = ab.high,
      <r.top, ah.tail> OF EACH r IN Rel, EACH ah IN Infront{ahead(Rel)}:
        r.base = ah.head
END above;
|}

let scene_range = Ast.Construct (Ast.Rel "Infront", "ahead", [ Ast.Arg_range (Ast.Rel "Ontop") ])

let scene_view () =
  let db, _ = Dc_lang.Elaborate.run_string scene_decls in
  (db, Ivm.materialize db ~constructor:"ahead" ~base:"Infront" ~args:[ Ast.Arg_range (Ast.Rel "Ontop") ])

(* 1,000 steps over both labels from empty ones: the node pool grows
   along the stream, so insertions keep bringing in nodes the view's
   graph has not numbered yet; after each step the view must equal a
   semi-naive evaluation from scratch. *)
let test_scene_stream () =
  let seed = 20261019 in
  let rng = Rng.create seed in
  let db, view = scene_view () in
  for i = 1 to 1000 do
    let rel = if Rng.bool rng 0.5 then "Infront" else "Ontop" in
    let current = Database.get db rel in
    let op =
      if Relation.cardinal current > 0 && Rng.bool rng 0.4 then begin
        let ts = Relation.to_list current in
        let t = List.nth ts (Rng.int rng (List.length ts)) in
        Database.delete db rel t;
        Fmt.str "DELETE %s%a" rel Tuple.pp t
      end
      else begin
        let pool = 3 + (i / 40) in
        let t = Tuple.of_list [ rand_node_of rng pool; rand_node_of rng pool ] in
        Database.insert db rel t;
        Fmt.str "INSERT %s%a" rel Tuple.pp t
      end
    in
    let expected = fresh_extent db scene_range in
    let got = ts_of_relation (Ivm.value view) in
    if not (TS.equal expected got) then
      Alcotest.failf
        "seed %d scene: step %d (%s): maintained extent diverged: %d maintained \
         vs %d from scratch"
        seed i op (TS.cardinal got) (TS.cardinal expected)
  done

(* The recogniser picks the route: the closures and the scene traverse,
   the systems it declines keep DRed. *)
let test_plan_kinds () =
  let kind w =
    let _, view = setup w (w.w_init (Rng.create 1)) in
    Ivm.plan_kind view
  in
  List.iter
    (fun w ->
      Alcotest.(check string) w.w_name "traversal (path____bottom_path over edge)" (kind w))
    (graph_workload :: dag_workloads);
  Alcotest.(check string) "scene" "traversal (ahead__Infront__Ontop over Infront, Ontop)"
    (Ivm.plan_kind (snd (scene_view ())));
  List.iter
    (fun w ->
      let k = kind w in
      if not (contains_s k ":dred") then
        Alcotest.failf "%s: plan %S, expected DRed" w.w_name k)
    [ sg_workload; mutual_workload; bom_workload; even_workload ]

(* A re-traversal ticks the guard on every row it emits, under the
   closure's label: a row budget trips inside it, names it, and leaves
   the base relation and the view as they were. *)
let test_traversal_trip () =
  let db, view, bridge = bridge_fixture "tc" in
  let before = ts_of_relation (Ivm.value view) in
  Database.set_limits db (Guard.limits ~rows:100 ());
  (match Database.insert db "Edge" (bridge 0) with
  | () -> Alcotest.fail "a 100-row budget held through a 32-source re-traversal"
  | exception Guard.Exhausted (Guard.Rows_exhausted _, progress) ->
    Alcotest.(check (option string)) "tripping operator" (Some "closure tc")
      progress.Guard.pg_operator);
  Database.set_limits db Guard.no_limits;
  Alcotest.(check bool) "base kept" false
    (Relation.mem (bridge 0) (Database.get db "Edge"));
  Alcotest.(check bool) "view kept" true (TS.equal before (ts_of_relation (Ivm.value view)))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dc_ivm"
    [
      ( "differential streams",
        List.map
          (fun w ->
            Alcotest.test_case
              (Fmt.str "%s: 1000 steps" w.w_name)
              `Slow (test_update_stream w))
          workloads
        @ [
            Alcotest.test_case "aggregate views: 1000 steps" `Slow
              test_agg_update_stream;
          ]
        @ List.map
            (fun w ->
              Alcotest.test_case
                (Fmt.str "%s: 1000 steps" w.w_name)
                `Slow (test_update_stream w))
            (dag_workloads @ [ even_workload ]) );
      ( "abort atomicity",
        List.map
          (fun w ->
            Alcotest.test_case w.w_name `Quick (test_abort_atomicity w))
          (workloads @ [ twohop_workload ])
        @ [
            Alcotest.test_case "aggregate views" `Quick
              test_agg_abort_atomicity;
            Alcotest.test_case even_workload.w_name `Quick
              (test_abort_atomicity even_workload);
          ] );
      ( "facts deletion",
        [ Alcotest.test_case "cached indexes" `Quick test_facts_remove_indexes ] );
      ( "surface",
        [
          Alcotest.test_case "MATERIALIZE output" `Quick
            test_surface_materialize_output;
          Alcotest.test_case "DELETE maintains" `Quick test_surface_delete;
          Alcotest.test_case "multi-row DELETE is one commit" `Quick
            test_surface_multi_row_delete;
          Alcotest.test_case "stale read under MAINTAIN OFF" `Quick
            test_stale_read;
          Alcotest.test_case "EXPLAIN ANALYZE DELETE" `Quick
            test_explain_analyze_update;
          Alcotest.test_case "restore recounts recursive counts" `Quick
            test_restore_recounts;
          Alcotest.test_case "restore a closure's DRed checkpoint" `Quick
            test_restore_dred_checkpoint;
        ] );
      ( "degree independence",
        List.map
          (fun w ->
            Alcotest.test_case
              (Fmt.str "%s stream" w.w_name)
              `Slow
              (test_degree_independent_stream w))
          ((graph_workload :: dag_workloads) @ [ even_workload ])
        @ [
            Alcotest.test_case "ring EXPLAIN ANALYZE DELETE" `Quick
              test_degree_independent_surface;
          ] );
      ( "properties",
        qcheck (List.map prop_stream (workloads @ dag_workloads @ [ even_workload ]))
      );
      ( "access paths",
        [
          Alcotest.test_case "no index over the view per update" `Quick
            test_no_view_index_builds;
          Alcotest.test_case "phases add up to the total" `Quick
            test_phases_add_up;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "plan kinds" `Quick test_plan_kinds;
          Alcotest.test_case "scene: 1000 steps" `Slow test_scene_stream;
          Alcotest.test_case "a row budget trips inside" `Quick
            test_traversal_trip;
        ] );
    ]
