(* Randomized oracle tests for the runtime access-path kernel:

   - indexes grown delta-incrementally ([Index.create]/[extend] batch by
     batch, and [Index_cache.advance] along a chain of growing relations)
     must answer every lookup exactly like an index freshly built on the
     final relation;
   - [Facts] stores extended through [add]/[add_set] must answer [lookup]
     like a store built in one shot;
   - relations built from interned values ([Value.str]) must be
     [Relation.equal] to the same relations built from raw [Value.Str]
     constructors, and interning must preserve compare/equal/hash;
   - [Relation.lookup_prefix] (a range scan of the ordered set) and
     [Extent.of_relation]'s keyed lookups must return what a hash index
     and a [Relation.filter] return, for present, absent, below-all and
     above-all keys, and a key on the leading columns must build no index;
   - the per-tuple helpers on the fixpoint's hot path ([Tuple.compare],
     [Tuple.equal], [Tuple_hset.visit]/[mem]/[add]) allocate nothing.

   Each generator is driven by a fixed-seed [Random.State], so failures
   reproduce. *)

open Dc_relation
module Facts = Dc_datalog.Facts

let tuple_list_testable =
  let pp ppf ts = Fmt.pf ppf "[%a]" (Fmt.list ~sep:Fmt.comma Tuple.pp) ts
  and eq a b = List.equal Tuple.equal a b in
  Alcotest.testable pp eq

let sorted ts = List.sort Tuple.compare ts

(* A random relation of random arity 1-4 over small int/str domains, with
   enough collisions that index buckets hold several tuples. *)
let random_relation rng =
  let arity = 1 + Random.State.int rng 4 in
  let attrs =
    List.init arity (fun i ->
        (Printf.sprintf "a%d" i,
         if Random.State.bool rng then Value.TInt else Value.TStr))
  in
  let schema = Schema.make attrs in
  let cell ty =
    match ty with
    | Value.TInt -> Value.Int (Random.State.int rng 12)
    | _ -> Value.str (Printf.sprintf "v%d" (Random.State.int rng 12))
  in
  let n = Random.State.int rng 80 in
  let tuples =
    List.init n (fun _ ->
        Tuple.of_list (List.map (fun (_, ty) -> cell ty) attrs))
  in
  List.fold_left
    (fun r t -> if Relation.mem t r then r else Relation.add t r)
    (Relation.empty schema) tuples

let random_positions rng arity =
  List.filter (fun _ -> Random.State.bool rng) (List.init arity Fun.id)

(* Split a relation into a chain of growing prefixes r0 ⊆ r1 ⊆ ... ⊆ r. *)
let random_batches rng rel =
  let ts = Relation.to_list rel in
  let batches = ref [] and current = ref [] in
  List.iter
    (fun t ->
      current := t :: !current;
      if Random.State.int rng 4 = 0 then begin
        batches := List.rev !current :: !batches;
        current := []
      end)
    ts;
  if !current <> [] then batches := List.rev !current :: !batches;
  List.rev !batches

let check_same_lookups ~what fresh_rel positions lookup_incremental =
  let fresh = Index.build positions fresh_rel in
  (* every present key image, plus a key that is absent *)
  Relation.iter
    (fun t ->
      let key = Tuple.project t positions in
      Alcotest.check tuple_list_testable what
        (sorted (Index.lookup fresh key))
        (sorted (lookup_incremental key)))
    fresh_rel;
  let absent = Tuple.make1 (Value.Int max_int) in
  let absent =
    if List.length positions = 1 then absent
    else
      Tuple.of_list
        (List.init (List.length positions) (fun _ -> Value.Int max_int))
  in
  Alcotest.check tuple_list_testable (what ^ " absent key")
    (sorted (Index.lookup fresh absent))
    (sorted (lookup_incremental absent))

(* Oracle 1: Index.create + extend batch-by-batch = Index.build on the
   final relation. *)
let test_index_extend_oracle () =
  let rng = Random.State.make [| 0x5eed; 1 |] in
  for _ = 1 to 60 do
    let rel = random_relation rng in
    let arity = List.length (Schema.attr_names (Relation.schema rel)) in
    let positions = random_positions rng arity in
    let idx = Index.create positions in
    List.iter
      (fun batch -> List.iter (Index.add idx) batch)
      (random_batches rng rel);
    check_same_lookups ~what:"extend = build" rel positions
      (Index.lookup idx)
  done

(* Oracle 2: an index advanced through Index_cache along a chain of
   monotonically growing relations = one built fresh on the last link. *)
let test_index_cache_advance_oracle () =
  let rng = Random.State.make [| 0x5eed; 2 |] in
  for _ = 1 to 60 do
    let rel = random_relation rng in
    let schema = Relation.schema rel in
    let arity = List.length (Schema.attr_names schema) in
    let positions = random_positions rng arity in
    let cache = Index_cache.create () in
    let grown =
      List.fold_left
        (fun prev batch ->
          (* probe the cache at every link so entries stay warm, exactly
             like a fixpoint round touching its access paths *)
          ignore (Index_cache.get cache positions prev);
          let delta = Relation.of_list schema batch in
          let next = Relation.union prev delta in
          Index_cache.advance cache ~old_rel:prev
            ~delta:(Relation.diff delta prev) ~next;
          next)
        (Relation.empty schema) (random_batches rng rel)
    in
    Alcotest.check Alcotest.bool "chain rebuilt the input" true
      (Relation.equal grown rel);
    let idx = Index_cache.get cache positions grown in
    check_same_lookups ~what:"advance = build" rel positions
      (Index.lookup idx)
  done

(* Oracle 3: Facts stores grown with add/add_set answer lookups like a
   store built in one shot (both the owning tip and stale snapshots). *)
let test_facts_incremental_oracle () =
  let rng = Random.State.make [| 0x5eed; 3 |] in
  for _ = 1 to 40 do
    let rel = random_relation rng in
    let arity = List.length (Schema.attr_names (Relation.schema rel)) in
    let positions = random_positions rng arity in
    let batches = random_batches rng rel in
    let snapshots, tip =
      List.fold_left
        (fun (snaps, store) batch ->
          let store' =
            if Random.State.bool rng then
              Facts.add_set store "p" (Facts.TS.of_list batch)
            else List.fold_left (fun s t -> Facts.add s "p" t) store batch
          in
          (store' :: snaps, store'))
        ([], Facts.empty ()) batches
    in
    let oneshot =
      Facts.add_set (Facts.empty ()) "p"
        (Facts.TS.of_list (Relation.to_list rel))
    in
    let check oracle store t =
      let key = Tuple.project t positions in
      Alcotest.check tuple_list_testable "facts incremental = oneshot"
        (sorted (Facts.lookup oracle "p" positions key))
        (sorted (Facts.lookup store "p" positions key))
    in
    Relation.iter (check oneshot tip) rel;
    (* a stale snapshot answers for its own (smaller) contents *)
    match snapshots with
    | [] -> ()
    | _ :: _ ->
      let stale =
        List.nth snapshots (Random.State.int rng (List.length snapshots))
      in
      let stale_oneshot =
        Facts.add_set (Facts.empty ()) "p" (Facts.find stale "p")
      in
      Facts.TS.iter (check stale_oneshot stale) (Facts.find stale "p")
  done

(* Oracle 4: interned construction is observationally equal to raw
   construction. Strings are built at runtime so physical equality cannot
   hold by accident. *)
let test_intern_relation_oracle () =
  let rng = Random.State.make [| 0x5eed; 4 |] in
  let schema = Schema.make [ ("src", Value.TStr); ("dst", Value.TStr) ] in
  for _ = 1 to 100 do
    let n = 1 + Random.State.int rng 40 in
    let pairs =
      List.init n (fun _ ->
          (Random.State.int rng 15, Random.State.int rng 15))
    in
    let name i = "n" ^ string_of_int i in
    let interned =
      Relation.of_list schema
        (List.filter_map
           (fun (a, b) ->
             let t = Tuple.make2 (Value.str (name a)) (Value.str (name b)) in
             Some t)
           pairs
        |> List.sort_uniq Tuple.compare)
    in
    let raw =
      Relation.of_list schema
        (List.map
           (fun (a, b) ->
             Tuple.make2 (Value.Str (name a)) (Value.Str (name b)))
           pairs
        |> List.sort_uniq Tuple.compare)
    in
    Alcotest.check Alcotest.bool "interned = raw construction" true
      (Relation.equal interned raw);
    Alcotest.check Alcotest.bool "raw = interned construction" true
      (Relation.equal raw interned)
  done

(* Value-level laws under interning: compare/equal agree with the raw
   representation, equal values hash identically, [intern] is idempotent. *)
let test_intern_value_laws () =
  let rng = Random.State.make [| 0x5eed; 5 |] in
  for _ = 1 to 200 do
    let s1 = "k" ^ string_of_int (Random.State.int rng 30) in
    let s2 = "k" ^ string_of_int (Random.State.int rng 30) in
    let raw1 = Value.Str s1 and raw2 = Value.Str s2 in
    let int1 = Value.str s1 and int2 = Value.str s2 in
    Alcotest.check Alcotest.int "compare agrees"
      (compare (Value.compare raw1 raw2) 0)
      (compare (Value.compare int1 int2) 0);
    Alcotest.check Alcotest.bool "equal agrees"
      (Value.equal raw1 raw2) (Value.equal int1 int2);
    Alcotest.check Alcotest.bool "mixed equal agrees"
      (Value.equal raw1 raw2) (Value.equal raw1 int2);
    if Value.equal raw1 int1 then
      Alcotest.check Alcotest.int "equal values hash equal"
        (Value.hash raw1) (Value.hash int1);
    Alcotest.check Alcotest.bool "intern idempotent" true
      (Value.intern int1 == int1)
  done

(* ------------------------------------------------------------------ *)
(* Prefix lookups: range scans of the ordered set *)

module Extent = Dc_exec.Extent

(* Cells of every type, with the extremes of each: [min_int] and
   [max_int], the empty string, both booleans, and negative floats. *)
let random_cell rng = function
  | Value.TInt ->
    Value.Int
      (match Random.State.int rng 6 with
      | 0 -> min_int
      | 1 -> max_int
      | _ -> Random.State.int rng 5 - 2)
  | Value.TStr -> Value.str (if Random.State.int rng 5 = 0 then "" else Printf.sprintf "s%d" (Random.State.int rng 4))
  | Value.TBool -> Value.Bool (Random.State.bool rng)
  | Value.TFloat -> Value.Float (float_of_int (Random.State.int rng 5) -. 2.5)

(* A relation of arity 1-3 with mixed column types; sometimes empty. *)
let mixed_relation rng =
  let types = [| Value.TInt; Value.TStr; Value.TBool; Value.TFloat |] in
  let arity = 1 + Random.State.int rng 3 in
  let schema =
    Schema.make
      (List.init arity (fun i ->
           (Printf.sprintf "c%d" i, types.(Random.State.int rng 4))))
  in
  let tys = Schema.attr_types schema in
  let n = if Random.State.int rng 8 = 0 then 0 else Random.State.int rng 50 in
  List.fold_left
    (fun r _ ->
      let t = Tuple.of_list (List.map (random_cell rng) tys) in
      if Relation.mem t r then r else Relation.add t r)
    (Relation.empty schema) (List.init n Fun.id)

(* A value strictly below / above [v] in [Value.compare] order, if one
   exists (type tags order Int < Str < Bool < Float). *)
let below = function
  | Value.Int x -> if x = min_int then None else Some (Value.Int (x - 1))
  | Value.Str _ -> Some (Value.Int max_int)
  | Value.Bool true -> Some (Value.Bool false)
  | Value.Bool false -> Some (Value.str "")
  | Value.Float _ -> Some (Value.Bool true)

let above = function
  | Value.Float f -> Some (Value.Float (f +. 1.))
  | _ -> Some (Value.Float neg_infinity)

(* A [j]-cell key ordered strictly before (after) [t]'s first [j] cells:
   keep a prefix of [t] and step the last cell that can be stepped. *)
let step_key step t j =
  let rec go i =
    if i < 0 then None
    else
      match step (Tuple.get t i) with
      | Some v ->
        Some (List.init j (fun k -> if k < i then Tuple.get t k else if k = i then v else Tuple.get t k))
      | None -> go (i - 1)
  in
  go (j - 1)

(* Every interesting key of length [j]: each present key image, one
   below every tuple, one above every tuple, and a few random ones. *)
let keys_for rng rel j =
  let present =
    Relation.fold
      (fun t acc -> List.init j (Tuple.get t) :: acc)
      rel []
  in
  let tys = List.init j (Schema.attr_ty (Relation.schema rel)) in
  let random = List.init 4 (fun _ -> List.map (random_cell rng) tys) in
  let ends =
    match Relation.to_list rel with
    | [] -> []
    | first :: _ as ts ->
      let last = List.nth ts (List.length ts - 1) in
      List.filter_map Fun.id [ step_key below first j; step_key above last j ]
  in
  present @ random @ ends

let matches positions key t =
  List.for_all2 (fun p v -> Value.equal (Tuple.get t p) v) positions key

(* lookup_prefix = hash index = filter, on positions [0..j-1]. *)
let prefix_agrees rng rel =
  let arity = Schema.arity (Relation.schema rel) in
  List.for_all
    (fun j ->
      let positions = List.init j Fun.id in
      let idx = Index.build positions rel in
      List.for_all
        (fun key ->
          let got = Relation.lookup_prefix rel key in
          let by_filter =
            Relation.to_list (Relation.filter (matches positions key) rel)
          in
          List.equal Tuple.equal got by_filter
          && List.equal Tuple.equal got
               (sorted (Index.lookup_values idx key)))
        (keys_for rng rel j))
    (List.init (arity + 1) Fun.id)

(* A random permutation of [l]. *)
let shuffle rng l =
  List.map snd
    (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))

(* Extent.of_relation on a random position set — a permutation of
   [0..j-1] (range scan) or any other subset (hash index) — answers like
   the index and the filter. *)
let extent_agrees rng rel =
  let arity = Schema.arity (Relation.schema rel) in
  let positions =
    if Random.State.bool rng then
      shuffle rng (List.init (Random.State.int rng (arity + 1)) Fun.id)
    else shuffle rng (random_positions rng arity)
  in
  let ext = Extent.of_relation rel in
  let idx = Index.build positions rel in
  List.for_all
    (fun key ->
      let got = sorted (ext.Extent.lookup positions key) in
      List.equal Tuple.equal got (sorted (Index.lookup_values idx key))
      && List.equal Tuple.equal got
           (Relation.to_list (Relation.filter (matches positions key) rel)))
    (List.map
       (fun k -> List.map (fun p -> List.nth k p) positions)
       (keys_for rng rel arity))

let test_lookup_prefix_oracle () =
  let rng = Random.State.make [| 0x5eed; 6 |] in
  for i = 1 to 300 do
    let rel = mixed_relation rng in
    if not (prefix_agrees rng rel) then
      Alcotest.failf "relation %d: lookup_prefix disagrees on %a" i Relation.pp
        rel;
    if not (extent_agrees rng rel) then
      Alcotest.failf "relation %d: Extent lookup disagrees on %a" i Relation.pp
        rel
  done

let prop_lookup_prefix =
  QCheck.Test.make ~name:"lookup_prefix = index = filter" ~count:300
    (QCheck.make ~print:(Fmt.str "%a" Relation.pp) mixed_relation)
    (fun rel ->
      let rng = Random.State.make [| Relation.cardinal rel |] in
      prefix_agrees rng rel && extent_agrees rng rel)

(* The fixed shapes: empty relation, permuted [1;0] keys, and the cache
   footprint of prefix vs non-prefix keys. *)
let test_lookup_prefix_shapes () =
  let schema = Schema.make [ ("a", Value.TInt); ("b", Value.TStr) ] in
  Alcotest.check tuple_list_testable "empty relation" []
    (Relation.lookup_prefix (Relation.empty schema) [ Value.Int 1 ]);
  let t a b = Tuple.of_list [ Value.Int a; Value.str b ] in
  let rel =
    Relation.of_list schema
      [ t min_int "x"; t 1 "x"; t 1 "y"; t 2 "x"; t max_int "y" ]
  in
  Alcotest.check tuple_list_testable "min_int prefix" [ t min_int "x" ]
    (Relation.lookup_prefix rel [ Value.Int min_int ]);
  Alcotest.check tuple_list_testable "one-column run" [ t 1 "x"; t 1 "y" ]
    (Relation.lookup_prefix rel [ Value.Int 1 ]);
  Alcotest.check tuple_list_testable "absent between runs" []
    (Relation.lookup_prefix rel [ Value.Int 0 ]);
  let cache = Index_cache.create () in
  let ext = Extent.of_relation ~cache rel in
  Alcotest.check tuple_list_testable "[1;0] reordered to a prefix"
    [ t 1 "y" ]
    (ext.Extent.lookup [ 1; 0 ] [ Value.str "y"; Value.Int 1 ]);
  Alcotest.check tuple_list_testable "[0]-keyed" [ t 2 "x" ]
    (ext.Extent.lookup [ 0 ] [ Value.Int 2 ]);
  Alcotest.check Alcotest.int "prefix keys build no index" 0
    (Index_cache.length cache);
  Alcotest.check tuple_list_testable "[1]-keyed"
    [ t min_int "x"; t 1 "x"; t 2 "x" ]
    (sorted (ext.Extent.lookup [ 1 ] [ Value.str "x" ]));
  Alcotest.check Alcotest.int "a non-prefix key indexes" 1
    (Index_cache.length cache)

(* Minor-heap words allocated by [n] calls of [f]. *)
let minor_words_of n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. w0

let test_zero_allocation () =
  let cells i = [ Value.Int i; Value.str "n7"; Value.Int (i * 3) ] in
  (* Equal tuples in distinct blocks, so compare and equal walk every
     cell; [b] has its hash cached and [a] does not. *)
  let a = Tuple.of_list (cells 5) and b = Tuple.of_list (cells 5) in
  ignore (Tuple.hash b);
  let c = Tuple.of_list (cells 6) in
  let set = Tuple_hset.create () in
  for i = 0 to 999 do
    ignore (Tuple_hset.add set (Tuple.of_list (cells i)))
  done;
  let absent = Tuple.of_list (cells 5000) in
  let check name f =
    Alcotest.check (Alcotest.float 0.) (name ^ ": minor words") 0.
      (minor_words_of 10_000 f)
  in
  check "Tuple.compare equal" (fun () -> ignore (Tuple.compare a b));
  check "Tuple.compare unequal" (fun () -> ignore (Tuple.compare a c));
  check "Tuple.equal distinct blocks" (fun () -> ignore (Tuple.equal a b));
  check "Tuple_hset.visit" (fun () -> ignore (Tuple_hset.visit set a));
  check "Tuple_hset.mem" (fun () ->
      ignore (Tuple_hset.mem set b);
      ignore (Tuple_hset.mem set absent));
  check "Tuple_hset.add present" (fun () -> ignore (Tuple_hset.add set b));
  Alcotest.check Alcotest.int "no tuple added" 1000 (Tuple_hset.count set)

let () =
  Alcotest.run "kernel"
    [
      ( "oracle",
        [
          Alcotest.test_case "index extend = fresh build" `Quick
            test_index_extend_oracle;
          Alcotest.test_case "index-cache advance = fresh build" `Quick
            test_index_cache_advance_oracle;
          Alcotest.test_case "facts incremental = one-shot" `Quick
            test_facts_incremental_oracle;
          Alcotest.test_case "interned relations = raw relations" `Quick
            test_intern_relation_oracle;
          Alcotest.test_case "value laws under interning" `Quick
            test_intern_value_laws;
          Alcotest.test_case "lookup_prefix = index = filter" `Quick
            test_lookup_prefix_oracle;
          Alcotest.test_case "lookup_prefix shapes and cache" `Quick
            test_lookup_prefix_shapes;
          Alcotest.test_case "tuple helpers allocate nothing" `Quick
            test_zero_allocation;
        ] );
      ("qcheck", [ QCheck_alcotest.to_alcotest prop_lookup_prefix ]);
    ]
