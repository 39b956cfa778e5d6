(* Tests for Dc_relation: values, schemas, tuples, relations, algebra. *)

open Dc_relation

let i n = Value.Int n
let s v = Value.Str v

let rel_testable = Alcotest.testable Relation.pp Relation.equal

let bin = Schema.make [ ("src", Value.TInt); ("dst", Value.TInt) ]

let pairs l = Relation.of_pairs bin (List.map (fun (a, b) -> (i a, i b)) l)

let test_value_order () =
  Alcotest.check Alcotest.bool "int order" true (Value.compare (i 1) (i 2) < 0);
  Alcotest.check Alcotest.bool "str order" true
    (Value.compare (s "a") (s "b") < 0);
  Alcotest.check Alcotest.bool "cross-type total" true
    (Value.compare (i 1) (s "a") <> 0)

let test_value_arith () =
  Alcotest.check Alcotest.bool "int add" true
    (Value.equal (Value.add (i 2) (i 3)) (i 5));
  Alcotest.check Alcotest.bool "str add" true
    (Value.equal (Value.add (s "a") (s "b")) (s "ab"));
  match Value.add (i 1) (s "x") with
  | _ -> Alcotest.fail "expected Type_error"
  | exception Value.Type_error _ -> ()

let test_schema_key () =
  let sch =
    Schema.make ~key:[ "id" ] [ ("id", Value.TInt); ("v", Value.TStr) ]
  in
  Alcotest.check Alcotest.(list int) "key positions" [ 0 ]
    (Schema.key_positions sch);
  Alcotest.check Alcotest.bool "not whole tuple" false
    (Schema.key_is_whole_tuple sch);
  match Schema.make [ ("x", Value.TInt); ("x", Value.TStr) ] with
  | _ -> Alcotest.fail "expected Schema_error"
  | exception Schema.Schema_error _ -> ()

let test_tuple_project () =
  let t = Tuple.of_list [ i 1; i 2; i 3 ] in
  Alcotest.check Alcotest.bool "project [2;0]" true
    (Tuple.equal (Tuple.project t [ 2; 0 ]) (Tuple.of_list [ i 3; i 1 ]))

let test_set_ops () =
  let a = pairs [ (1, 2); (2, 3) ] and b = pairs [ (2, 3); (3, 4) ] in
  Alcotest.check rel_testable "union"
    (pairs [ (1, 2); (2, 3); (3, 4) ])
    (Relation.union a b);
  Alcotest.check rel_testable "inter" (pairs [ (2, 3) ]) (Relation.inter a b);
  Alcotest.check rel_testable "diff" (pairs [ (1, 2) ]) (Relation.diff a b);
  Alcotest.check Alcotest.bool "subset" true
    (Relation.subset (Relation.inter a b) a)

let test_type_check () =
  let r = Relation.empty bin in
  match Relation.add (Tuple.of_list [ i 1; s "x" ]) r with
  | _ -> Alcotest.fail "expected Type_mismatch"
  | exception Relation.Type_mismatch _ -> ()

let test_join () =
  let a = pairs [ (1, 2); (2, 3) ] and b = pairs [ (2, 9); (3, 7) ] in
  let j = Algebra.join ~on:[ (1, 0) ] a b in
  Alcotest.check Alcotest.int "join size" 2 (Relation.cardinal j);
  Alcotest.check Alcotest.bool "join content" true
    (Relation.mem (Tuple.of_list [ i 1; i 2; i 2; i 9 ]) j)

let test_compose () =
  let a = pairs [ (1, 2); (2, 3) ] and b = pairs [ (2, 5); (3, 6) ] in
  Alcotest.check rel_testable "compose"
    (pairs [ (1, 5); (2, 6) ])
    (Algebra.compose a b)

let test_tc () =
  let edges = pairs [ (1, 2); (2, 3); (3, 1) ] in
  let tc = Algebra.transitive_closure edges in
  Alcotest.check Alcotest.int "cycle closure is complete" 9
    (Relation.cardinal tc)

let test_project_dedup () =
  let r = pairs [ (1, 2); (1, 3) ] in
  let p = Algebra.project [ 0 ] r in
  Alcotest.check Alcotest.int "dedup" 1 (Relation.cardinal p)

let test_index () =
  let r = pairs [ (1, 2); (1, 3); (2, 4) ] in
  let idx = Index.build [ 0 ] r in
  Alcotest.check Alcotest.int "bucket count" 2 (Index.buckets idx);
  Alcotest.check Alcotest.int "lookup 1" 2
    (List.length (Index.lookup_values idx [ i 1 ]));
  Alcotest.check Alcotest.int "lookup missing" 0
    (List.length (Index.lookup_values idx [ i 9 ]))

let test_schema_project_rename () =
  let sch =
    Schema.make ~key:[ "id" ]
      [ ("id", Value.TInt); ("name", Value.TStr); ("age", Value.TInt) ]
  in
  let p = Schema.project sch [ 2; 0 ] ~key:None in
  Alcotest.check Alcotest.(list string) "projected names" [ "age"; "id" ]
    (Schema.attr_names p);
  let r = Schema.rename sch [ "k"; "n"; "a" ] in
  Alcotest.check Alcotest.(list string) "renamed" [ "k"; "n"; "a" ]
    (Schema.attr_names r);
  Alcotest.check Alcotest.(list int) "key positions preserved" [ 0 ]
    (Schema.key_positions r);
  match Schema.rename sch [ "x" ] with
  | _ -> Alcotest.fail "expected Schema_error"
  | exception Schema.Schema_error _ -> ()

let test_with_schema () =
  let r = pairs [ (1, 2) ] in
  let renamed =
    Relation.with_schema (Schema.make [ ("a", Value.TInt); ("b", Value.TInt) ]) r
  in
  Alcotest.check Alcotest.(list string) "viewed names" [ "a"; "b" ]
    (Schema.attr_names (Relation.schema renamed));
  Alcotest.check Alcotest.bool "tuples shared" true (Relation.equal r renamed);
  match
    Relation.with_schema (Schema.make [ ("a", Value.TStr); ("b", Value.TInt) ]) r
  with
  | _ -> Alcotest.fail "expected Type_mismatch"
  | exception Relation.Type_mismatch _ -> ()

let test_refinements () =
  let sch =
    Schema.make
      ~refinements:[ ("id", Schema.Int_range (1, 100)) ]
      [ ("id", Value.TInt); ("v", Value.TStr) ]
  in
  Alcotest.check Alcotest.bool "in range" true
    (Tuple.in_domain sch (Tuple.make2 (i 50) (s "x")));
  Alcotest.check Alcotest.bool "out of range" false
    (Tuple.in_domain sch (Tuple.make2 (i 0) (s "x")));
  (* enforced by checked insertion *)
  (match Relation.add (Tuple.make2 (i 101) (s "x")) (Relation.empty sch) with
  | _ -> Alcotest.fail "expected Type_mismatch"
  | exception Relation.Type_mismatch _ -> ());
  (* survives project and rename *)
  let p = Schema.project sch [ 0 ] ~key:None in
  Alcotest.check Alcotest.bool "projection keeps refinement" true
    (Schema.attr_refinement p 0 = Schema.Int_range (1, 100));
  let r = Schema.rename sch [ "k"; "w" ] in
  Alcotest.check Alcotest.bool "rename keeps refinement" true
    (Schema.attr_refinement r 0 = Schema.Int_range (1, 100))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop k =
    k + nn <= nh && (String.sub haystack k nn = needle || loop (k + 1))
  in
  nn = 0 || loop 0

let test_pp_table () =
  let out = Fmt.str "%a" Relation.pp_table (pairs [ (1, 2); (10, 20) ]) in
  Alcotest.check Alcotest.bool "has header" true (contains out "src");
  Alcotest.check Alcotest.bool "has count" true (contains out "(2 tuples)")

let test_semijoin () =
  let a = pairs [ (1, 2); (3, 4); (5, 6) ] in
  let b = pairs [ (2, 9); (6, 9) ] in
  Alcotest.check rel_testable "semijoin"
    (pairs [ (1, 2); (5, 6) ])
    (Algebra.semijoin ~on:[ (1, 0) ] a b)

let prop_join_is_filtered_product =
  QCheck.Test.make ~name:"join = product + filter" ~count:60
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_bound 12)
          (QCheck.pair (QCheck.int_bound 4) (QCheck.int_bound 4)))
       (QCheck.list_of_size (QCheck.Gen.int_bound 12)
          (QCheck.pair (QCheck.int_bound 4) (QCheck.int_bound 4))))
    (fun (la, lb) ->
      let a = pairs la and b = pairs lb in
      let joined = Algebra.join ~on:[ (1, 0) ] a b in
      let filtered =
        Relation.filter
          (fun t -> Value.equal (Tuple.get t 1) (Tuple.get t 2))
          (Algebra.product a b)
      in
      Relation.equal joined filtered)

(* Property tests on set-algebra laws. *)
let arb_rel =
  let open QCheck in
  let gen_pair = Gen.(pair (int_bound 8) (int_bound 8)) in
  make
    Gen.(
      map
        (fun ps -> pairs (List.map (fun (a, b) -> (a, b)) ps))
        (list_size (int_bound 30) gen_pair))
    ~print:(fun r -> Fmt.str "%a" Relation.pp r)

let prop_union_commutes =
  QCheck.Test.make ~name:"union commutes" ~count:100
    (QCheck.pair arb_rel arb_rel) (fun (a, b) ->
      Relation.equal (Relation.union a b) (Relation.union b a))

let prop_diff_union =
  QCheck.Test.make ~name:"(a-b) ∪ (a∩b) = a" ~count:100
    (QCheck.pair arb_rel arb_rel) (fun (a, b) ->
      Relation.equal
        (Relation.union (Relation.diff a b) (Relation.inter a b))
        a)

let prop_tc_idempotent =
  QCheck.Test.make ~name:"tc(tc(r)) = tc(r)" ~count:50 arb_rel (fun r ->
      let tc = Algebra.transitive_closure r in
      Relation.equal tc (Algebra.transitive_closure tc))

let prop_tc_contains =
  QCheck.Test.make ~name:"r ⊆ tc(r)" ~count:100 arb_rel (fun r ->
      Relation.subset r (Algebra.transitive_closure r))

let prop_compose_assoc =
  QCheck.Test.make ~name:"compose associative" ~count:60
    (QCheck.triple arb_rel arb_rel arb_rel) (fun (a, b, c) ->
      Relation.equal
        (Algebra.compose (Algebra.compose a b) c)
        (Algebra.compose a (Algebra.compose b c)))

(* ------------------------------------------------------------------ *)
(* Tuple_hset against Tuple_set *)

module TS = Relation.Tuple_set

(* Int and Str cells with equal [Value.hash]: a birthday search over the
   30-bit hash finds several, deterministically. *)
let hash_twins =
  lazy
    (let by_hash = Hashtbl.create 4096 in
     for n = 0 to 99_999 do
       Hashtbl.replace by_hash (Value.hash (i n)) n
     done;
     List.filter_map
       (fun k ->
         let str = s (Fmt.str "s%d" k) in
         Option.map (fun n -> (i n, str)) (Hashtbl.find_opt by_hash (Value.hash str)))
       (List.init 100_000 Fun.id))

let test_hset_twins () =
  let twins = Lazy.force hash_twins in
  Alcotest.check Alcotest.bool "some twins found" true (twins <> []);
  let h = Tuple_hset.create () in
  List.iter
    (fun (a, b) ->
      let ta = Tuple.make1 a and tb = Tuple.make1 b in
      Alcotest.check Alcotest.int "same hash" (Tuple.hash ta) (Tuple.hash tb);
      Alcotest.check Alcotest.bool "int twin new" true (Tuple_hset.add h ta);
      Alcotest.check Alcotest.bool "str twin new" true (Tuple_hset.add h tb);
      Alcotest.check Alcotest.bool "str twin seen" false (Tuple_hset.add h tb))
    twins;
  List.iter
    (fun (a, _) ->
      Alcotest.check Alcotest.bool "int twin kept" false
        (Tuple_hset.add h (Tuple.make1 a)))
    twins

(* Batches of tuples, the set cleared between batches: ints over a range
   wide enough to force several doublings of a new set, arity-0 tuples
   (each a fresh physical value), and the hash twins. *)
let arb_hset_batches =
  let open QCheck.Gen in
  let twins = Array.of_list (Lazy.force hash_twins) in
  let tuple =
    frequency
      [
        (8, map2 (fun a b -> Tuple.make2 (i a) (i b)) (int_bound 40) (int_bound 40));
        (1, map (fun () -> Tuple.of_list []) unit);
        ( 2,
          map2
            (fun k second ->
              let a, b = twins.(k) in
              Tuple.make1 (if second then b else a))
            (int_bound (Array.length twins - 1))
            bool );
        (1, map (fun a -> Tuple.make1 (i a)) (int_bound 5));
      ]
  in
  QCheck.make
    ~print:(fun batches ->
      String.concat " | "
        (List.map
           (fun b -> String.concat ";" (List.map Tuple.to_string b))
           batches))
    (list_size (int_range 1 4) (list_size (int_bound 400) tuple))

let prop_hset_matches_set =
  QCheck.Test.make ~name:"Tuple_hset.add is true once per distinct tuple"
    ~count:100 arb_hset_batches (fun batches ->
      let h = Tuple_hset.create () in
      List.for_all
        (fun batch ->
          Tuple_hset.clear h;
          let ok, set =
            List.fold_left
              (fun (ok, set) t ->
                (ok && Tuple_hset.add h t = not (TS.mem t set), TS.add t set))
              (true, TS.empty) batch
          in
          ok && TS.for_all (fun t -> not (Tuple_hset.add h t)) set)
        batches)

(* Novelty tables: [visit]/[add]/[mem] over a run of rounds against a
   [Hashtbl] model that remembers the (unbounded) round of each tuple's
   last visit.  The gaps of empty rounds between batches include 254,
   255 and 256, so a table whose byte stamps aliased across a wrap
   would call a tuple first seen 255 rounds ago a repeat; the tuples
   (ints up to 99, hash twins, arity 0) grow a table from 16 slots. *)
module Model = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

type hset_op =
  | Visit of Tuple.t
  | Add of Tuple.t
  | Mem of Tuple.t

let arb_rounds =
  let open QCheck.Gen in
  let twins = Array.of_list (Lazy.force hash_twins) in
  let tuple =
    frequency
      [
        (8, map (fun a -> Tuple.make1 (i a)) (int_bound 99));
        (1, map (fun () -> Tuple.of_list []) unit);
        ( 2,
          map2
            (fun k second ->
              let a, b = twins.(k mod Array.length twins) in
              Tuple.make1 (if second then b else a))
            (int_bound 5) bool );
      ]
  in
  let op =
    frequency
      [
        (6, map (fun t -> Visit t) tuple);
        (1, map (fun t -> Add t) tuple);
        (2, map (fun t -> Mem t) tuple);
      ]
  in
  let gap = oneofl [ 0; 0; 0; 1; 2; 254; 255; 256; 600 ] in
  let batch = list_size (int_bound 40) op in
  QCheck.make
    ~print:(fun rounds ->
      String.concat " | "
        (List.map
           (fun (gap, ops) ->
             Fmt.str "+%d: %s" gap
               (String.concat ";"
                  (List.map
                     (function
                       | Visit t -> "v" ^ Tuple.to_string t
                       | Add t -> "a" ^ Tuple.to_string t
                       | Mem t -> "m" ^ Tuple.to_string t)
                     ops)))
           rounds))
    (list_size (int_range 2 12) (pair gap batch))

let prop_novelty_matches_model =
  QCheck.Test.make ~name:"Tuple_hset.visit matches a Hashtbl model" ~count:200
    arb_rounds (fun rounds ->
      let h = Tuple_hset.create () in
      let model = Model.create 16 in
      let round = ref 1 in
      let next () =
        Tuple_hset.next_round h;
        incr round
      in
      let step = function
        | Visit t ->
          let expected =
            match Model.find_opt model t with
            | None -> Tuple_hset.Fresh
            | Some (Some r) when r = !round -> Tuple_hset.Repeat
            | Some _ -> Tuple_hset.Known
          in
          Model.replace model t (Some !round);
          Tuple_hset.visit h t = expected
        | Add t ->
          let absent = not (Model.mem model t) in
          if absent then Model.replace model t None;
          Tuple_hset.add h t = absent
        | Mem t -> Tuple_hset.mem h t = Model.mem model t
      in
      List.for_all
        (fun (gap, ops) ->
          for _ = 1 to gap do
            next ()
          done;
          let ok = List.for_all step ops in
          next ();
          ok)
        rounds
      && Model.fold (fun t _ ok -> ok && Tuple_hset.mem h t) model true)

(* Runs against trees: every relation built twice from the same rows, as
   a run ([of_ranks_unchecked], ranks over a dictionary of values) and
   as a tree ([of_list]), must answer every operation alike — reads on
   the run in place, set operations through its derived tree, on either
   side of a mixed operand pair. *)

type shape = {
  sh_whole : Schema.t; (* key = the whole tuple *)
  sh_keyed : Schema.t; (* key = the first column *)
}

let shape_of kinds =
  let attrs = List.mapi (fun k ty -> (Fmt.str "c%d" k, ty)) kinds in
  { sh_whole = Schema.make attrs; sh_keyed = Schema.make ~key:[ "c0" ] attrs }

(* [rows] as a run over one dictionary of every value they use, and of
   [unused] values, as a closure's answer is built: the columns share
   the dictionary whatever their types. *)
let as_run ?(unused = []) schema rows =
  let rows = Array.of_list (List.sort_uniq Tuple.compare rows) in
  let nodes =
    Array.of_list
      (List.sort_uniq Value.compare
         (unused @ List.concat_map Tuple.to_list (Array.to_list rows)))
  in
  let rank = Hashtbl.create 16 in
  Array.iteri (fun r v -> Hashtbl.replace rank v r) nodes;
  Relation.of_ranks_unchecked schema nodes
    (Array.init (Schema.arity schema) (fun c ->
         Array.map (fun t -> Hashtbl.find rank (Tuple.get t c)) rows))

(* An operation's answer, or the exception it raised *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception Relation.Key_violation _ -> Error "key violation"
  | exception Relation.Type_mismatch _ -> Error "type mismatch"

let rows_of r = List.map Tuple.to_string (Relation.to_list r)

(* Every answer of [Relation] on [a] and [b] that the oracle compares,
   rendered as strings; [probes] are tuples (some ill-typed) to look up,
   add and remove. *)
let answers shape probes a b =
  let key_view r = Relation.with_schema shape.sh_keyed r in
  let even t = Value.compare (Tuple.get t 0) (i 2) <= 0 in
  let reads r =
    [
      string_of_int (Relation.cardinal r);
      string_of_bool (Relation.is_empty r);
      String.concat ";" (rows_of r);
      String.concat ";"
        (Relation.fold (fun t acc -> Tuple.to_string t :: acc) r []);
      (let seen = ref [] in
       Relation.iter (fun t -> seen := Tuple.to_string t :: !seen) r;
       String.concat ";" !seen);
      string_of_bool (Relation.exists even r);
      string_of_bool (Relation.for_all even r);
      Option.fold ~none:"-" ~some:Tuple.to_string (Relation.choose_opt r);
      String.concat ";" (rows_of (Relation.filter even r));
      String.concat ";" (rows_of (Relation.with_schema shape.sh_keyed r));
    ]
    @ List.concat_map
        (fun p ->
          let cells = Tuple.to_list p in
          string_of_bool (Relation.mem p r)
          :: List.init 3 (fun k ->
                 String.concat ";"
                   (List.map Tuple.to_string
                      (Relation.lookup_prefix r
                         (List.filteri (fun j _ -> j < k) cells)))))
        probes
  in
  let result f =
    match outcome f with
    | Ok r -> String.concat ";" (rows_of r)
    | Error e -> e
  in
  let unit_result f =
    match outcome f with Ok () -> "ok" | Error e -> e
  in
  reads a
  @ [
      result (fun () -> Relation.union a b);
      result (fun () -> Relation.union b a);
      result (fun () -> Relation.union a a);
      result (fun () -> Relation.inter a b);
      result (fun () -> Relation.diff a b);
      result (fun () -> Relation.diff b a);
      result (fun () -> Relation.diff a a);
      string_of_bool (Relation.equal a b);
      string_of_bool (Relation.equal a a);
      string_of_bool (Relation.subset a b);
      string_of_bool (Relation.subset b a);
      string_of_int (compare (Relation.compare_tuples a b) 0);
      string_of_int (Relation.compare_tuples a a);
      unit_result (fun () -> Relation.check_key a);
      unit_result (fun () -> Relation.check_key (key_view a));
      result (fun () -> Relation.union (key_view a) b);
      String.concat "|"
        (Array.to_list
           (Array.map
              (fun r -> String.concat ";" (rows_of r))
              (Relation.partition_hash ~shards:3 a)));
    ]
  @ List.concat_map
      (fun p ->
        [
          result (fun () -> Relation.add p a);
          result (fun () -> Relation.add p (key_view a));
          result (fun () -> Relation.add_unchecked p a);
          result (fun () -> Relation.remove p a);
          string_of_bool (Relation.violates_key (key_view a) p);
        ])
      (List.filter (Tuple.well_typed shape.sh_whole) probes)
  @ List.concat_map
      (fun p ->
        [
          result (fun () -> Relation.add p a);
          string_of_bool (Relation.mem p a);
        ])
      (List.filter (fun p -> not (Tuple.well_typed shape.sh_whole p)) probes)
  (* the run after its tree was derived reads as before *)
  @ reads a

(* A cell of a column's type; rows draw from [0, 4], probes and unused
   dictionary values from [0, 6] *)
let cell bound (ty : Value.ty) =
  QCheck.Gen.map
    (fun k -> if ty = Value.TStr then s (Fmt.str "s%d" k) else i k)
    (QCheck.Gen.int_bound bound)

let arb_run_case =
  let open QCheck.Gen in
  let case kinds =
    let tuple bound = map Tuple.of_list (flatten_l (List.map (cell bound) kinds)) in
    (* the first cell of another type, which the dictionary may hold
       (another column's), or not *)
    let ill =
      map2
        (fun v rest -> Tuple.of_list (v :: rest))
        (if List.hd kinds = Value.TStr then map i (int_bound 6) else oneofl [ s "x"; s "s1" ])
        (flatten_l (List.map (cell 4) (List.tl kinds)))
    in
    let rows =
      frequency [ (1, return []); (6, list_size (int_bound 14) (tuple 4)) ]
    in
    let unused =
      list_size (int_bound 3) (oneof [ cell 6 Value.TInt; cell 6 Value.TStr ])
    in
    map3
      (fun (a, b) unused probes -> (kinds, a, b, unused, probes))
      (pair rows rows) unused
      (list_size (int_range 1 6) (frequency [ (5, tuple 6); (1, ill) ]))
  in
  QCheck.make
    ~print:(fun (kinds, a, b, unused, probes) ->
      let show l = String.concat ";" (List.map Tuple.to_string l) in
      Fmt.str "columns %a: a = %s  b = %s  unused = %a  probes = %s"
        Fmt.(list ~sep:comma Value.pp_ty)
        kinds (show a) (show b)
        Fmt.(list ~sep:comma Value.pp)
        unused (show probes))
    (oneofl
       Value.
         [
           [ TInt; TInt ];
           [ TInt; TStr ];
           [ TStr; TInt ];
           [ TStr; TInt; TStr ];
           [ TInt; TInt; TInt ];
         ]
    >>= case)

let prop_run_matches_tree =
  QCheck.Test.make ~name:"a run answers every operation as its tree" ~count:300
    arb_run_case (fun (kinds, a, b, unused, probes) ->
      let shape = shape_of kinds in
      let tree rows = Relation.of_list shape.sh_whole rows in
      let run rows = as_run ~unused shape.sh_whole rows in
      let oracle = answers shape probes (tree a) (tree b) in
      List.for_all
        (fun (x, y) ->
          let got = answers shape probes x y in
          got = oracle
          || QCheck.Test.fail_reportf "differs:@.oracle %s@.got    %s"
               (String.concat " / " oracle) (String.concat " / " got))
        [ (run a, tree b); (tree a, run b); (run a, run b) ])

(* Four domains read and combine one shared run at once, each forcing its
   tree through [union]/[diff] while the others binary-search it: every
   answer must equal the oracle's, and nothing may raise. *)
let test_run_shared_by_domains () =
  let schema = (shape_of [ Value.TInt; Value.TInt ]).sh_whole in
  let rows =
    List.init 4_000 (fun k -> Tuple.make2 (i (k / 40)) (i (k mod 40)))
  and other = List.init 500 (fun k -> Tuple.make2 (i (3 * k / 20)) (i 41)) in
  let tree = Relation.of_list schema rows
  and other = Relation.of_list schema other in
  let union = rows_of (Relation.union tree other)
  and diff = rows_of (Relation.diff tree other) in
  (* 41 is in the dictionary, as a value no row uses *)
  let shared = as_run ~unused:[ i 41 ] schema rows in
  let work d () =
    List.for_all Fun.id
      (List.init 20 (fun k ->
           let key = i ((d * 20) + k) in
           Relation.mem (Tuple.make2 key (i (k mod 40))) shared
           && (not (Relation.mem (Tuple.make2 key (i 40)) shared))
           && (not (Relation.mem (Tuple.make2 key (i 41)) shared))
           && Relation.lookup_prefix shared [ key ]
              = Relation.lookup_prefix tree [ key ]
           && rows_of (Relation.union shared other) = union
           && rows_of (Relation.diff shared other) = diff))
  in
  let domains = List.init 4 (fun d -> Domain.spawn (work d)) in
  List.iteri
    (fun d dom ->
      Alcotest.check Alcotest.bool
        (Fmt.str "domain %d agrees" d)
        true (Domain.join dom))
    domains

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dc_relation"
    [
      ( "value",
        [
          Alcotest.test_case "ordering" `Quick test_value_order;
          Alcotest.test_case "arithmetic" `Quick test_value_arith;
        ] );
      ( "schema",
        [
          Alcotest.test_case "keys" `Quick test_schema_key;
          Alcotest.test_case "tuple project" `Quick test_tuple_project;
          Alcotest.test_case "project/rename" `Quick test_schema_project_rename;
          Alcotest.test_case "with_schema view" `Quick test_with_schema;
          Alcotest.test_case "pp_table" `Quick test_pp_table;
          Alcotest.test_case "domain refinements (2.1)" `Quick test_refinements;
        ] );
      ( "relation",
        [
          Alcotest.test_case "set ops" `Quick test_set_ops;
          Alcotest.test_case "type check" `Quick test_type_check;
          Alcotest.test_case "hash set twins" `Quick test_hset_twins;
          Alcotest.test_case "a run shared by four domains" `Quick
            test_run_shared_by_domains;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "semijoin" `Quick test_semijoin;
          Alcotest.test_case "compose" `Quick test_compose;
          Alcotest.test_case "transitive closure" `Quick test_tc;
          Alcotest.test_case "project dedup" `Quick test_project_dedup;
          Alcotest.test_case "index" `Quick test_index;
        ] );
      ( "properties",
        qcheck
          [
            prop_union_commutes;
            prop_diff_union;
            prop_tc_idempotent;
            prop_tc_contains;
            prop_compose_assoc;
            prop_join_is_filtered_product;
            prop_hset_matches_set;
            prop_novelty_matches_model;
            prop_run_matches_tree;
          ] );
    ]
