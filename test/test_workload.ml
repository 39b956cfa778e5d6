(* Tests for Dc_workload: PRNG determinism and range, generator shapes. *)

open Dc_relation
open Dc_workload

let rel_card = Relation.cardinal

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let seq r = List.init 50 (fun _ -> Rng.int r 1000) in
  Alcotest.check Alcotest.(list int) "same seed, same stream" (seq a) (seq b);
  let c = Rng.create 43 in
  Alcotest.check Alcotest.bool "different seed, different stream" false
    (seq (Rng.create 42) = seq c)

let test_rng_range () =
  (* regression: Int64 -> int truncation must never yield negatives *)
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 6 in
    if v < 0 || v >= 6 then Alcotest.failf "out of range: %d" v
  done;
  let r = Rng.create 9 in
  for _ = 1 to 1_000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_split () =
  let r = Rng.create 1 in
  let s = Rng.split r in
  let a = List.init 10 (fun _ -> Rng.int r 100) in
  let b = List.init 10 (fun _ -> Rng.int s 100) in
  Alcotest.check Alcotest.bool "split streams differ" true (a <> b)

let test_chain () =
  let c = Graph_gen.chain 10 in
  Alcotest.check Alcotest.int "10 edges" 10 (rel_card c);
  Alcotest.check Alcotest.int "closure" 55
    (rel_card (Algebra.transitive_closure c))

let test_cycle () =
  let c = Graph_gen.cycle 6 in
  Alcotest.check Alcotest.int "6 edges" 6 (rel_card c);
  (* in a cycle every node reaches every node *)
  Alcotest.check Alcotest.int "closure complete" 36
    (rel_card (Algebra.transitive_closure c))

let test_binary_tree () =
  let t = Graph_gen.binary_tree 4 in
  Alcotest.check Alcotest.int "2^5-2 edges" 30 (rel_card t)

let test_random_graph_dedup () =
  let g = Graph_gen.random_graph ~seed:3 ~nodes:10 ~edges:40 in
  Alcotest.check Alcotest.int "requested edge count" 40 (rel_card g);
  Relation.iter
    (fun t ->
      if Value.equal (Tuple.get t 0) (Tuple.get t 1) then
        Alcotest.fail "self loop generated")
    g

let test_random_graph_deterministic () =
  let a = Graph_gen.random_graph ~seed:5 ~nodes:20 ~edges:30 in
  let b = Graph_gen.random_graph ~seed:5 ~nodes:20 ~edges:30 in
  Alcotest.check Alcotest.bool "same seed, same graph" true (Relation.equal a b)

let test_layered_acyclic () =
  let g = Graph_gen.layered ~layers:4 ~width:3 in
  Alcotest.check Alcotest.int "3 * 9 edges" 27 (rel_card g);
  (* acyclic: closure has no (x, x) pairs *)
  Relation.iter
    (fun t ->
      if Value.equal (Tuple.get t 0) (Tuple.get t 1) then
        Alcotest.fail "layered graph has a cycle")
    (Algebra.transitive_closure g)

let test_chains_dag () =
  let g, at = Graph_gen.chains_dag ~seed:5 ~chains:8 ~len:32 ~edges:384 in
  Alcotest.check Alcotest.int "384 edges" 384 (rel_card g);
  let g', _ = Graph_gen.chains_dag ~seed:5 ~chains:8 ~len:32 ~edges:384 in
  Alcotest.check Alcotest.bool "same seed, same graph" true
    (Relation.equal g g');
  (* every chain link is present, and every edge points forward inside
     one chain, so the graph is acyclic *)
  let pos = Hashtbl.create 256 in
  for c = 0 to 7 do
    for p = 0 to 31 do
      Hashtbl.replace pos (Graph_gen.node (at c p)) (c, p);
      if p > 0 then
        Alcotest.check Alcotest.bool "chain link" true
          (Relation.mem
             (Tuple.make2
                (Graph_gen.node (at c (p - 1)))
                (Graph_gen.node (at c p)))
             g)
    done
  done;
  Relation.iter
    (fun t ->
      let c, p = Hashtbl.find pos (Tuple.get t 0)
      and c', q = Hashtbl.find pos (Tuple.get t 1) in
      if c <> c' || q <= p then
        Alcotest.fail "edge leaves its chain or points back")
    g

let test_two_chains_disjoint () =
  let g = Graph_gen.two_chains 5 in
  let tc = Algebra.transitive_closure g in
  (* no path from the first chain to the second *)
  Alcotest.check Alcotest.bool "disjoint" false
    (Relation.mem
       (Tuple.make2 (Graph_gen.node 0) (Graph_gen.node 100001))
       tc);
  Alcotest.check Alcotest.int "two closures" 30 (Relation.cardinal tc)

let test_scene_shapes () =
  let infront, ontop = Graph_gen.scene ~depth:6 ~stack:2 in
  Alcotest.check Alcotest.int "infront chain" 6 (rel_card infront);
  (* stacks on objects 0, 2, 4: 3 stacks of 2 *)
  Alcotest.check Alcotest.int "ontop stacks" 6 (rel_card ontop)

let test_bom_acyclic () =
  (* regression for the Rng truncation bug: the hierarchy must be layered *)
  let big = Bom_gen.hierarchy ~seed:42 ~levels:5 ~width:6 ~uses:2 in
  let idx s = int_of_string (String.sub s 1 (String.length s - 1)) in
  Relation.iter
    (fun t ->
      match Tuple.get t 0, Tuple.get t 1 with
      | Value.Str a, Value.Str c ->
        let la = idx a / 6 and lc = idx c / 6 in
        if lc <> la + 1 then
          Alcotest.failf "edge %s (level %d) -> %s (level %d)" a la c lc
      | _ -> Alcotest.fail "non-string parts")
    big;
  Alcotest.check Alcotest.int "4 * 6 * 2 edges" 48 (rel_card big)

let test_bom_quantities () =
  let big = Bom_gen.hierarchy ~seed:1 ~levels:3 ~width:4 ~uses:2 in
  Relation.iter
    (fun t ->
      match Tuple.get t 2 with
      | Value.Int q when q >= 1 && q <= 4 -> ()
      | v -> Alcotest.failf "bad quantity %s" (Value.to_string v))
    big

let test_same_generation_tree () =
  let up, flat, down = Graph_gen.same_generation_tree 3 in
  Alcotest.check Alcotest.int "up edges" 14 (rel_card up);
  Alcotest.check Alcotest.int "down edges" 14 (rel_card down);
  Alcotest.check Alcotest.int "flat" 1 (rel_card flat)

let () =
  Alcotest.run "dc_workload"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "range (truncation regression)" `Quick
            test_rng_range;
          Alcotest.test_case "split" `Quick test_rng_split;
        ] );
      ( "graphs",
        [
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "cycle" `Quick test_cycle;
          Alcotest.test_case "binary tree" `Quick test_binary_tree;
          Alcotest.test_case "random graph dedup" `Quick
            test_random_graph_dedup;
          Alcotest.test_case "random graph deterministic" `Quick
            test_random_graph_deterministic;
          Alcotest.test_case "layered acyclic" `Quick test_layered_acyclic;
          Alcotest.test_case "two chains disjoint" `Quick
            test_two_chains_disjoint;
          Alcotest.test_case "scene" `Quick test_scene_shapes;
          Alcotest.test_case "same-generation tree" `Quick
            test_same_generation_tree;
          Alcotest.test_case "chains with shortcuts" `Quick test_chains_dag;
        ] );
      ( "bom",
        [
          Alcotest.test_case "acyclic hierarchy" `Quick test_bom_acyclic;
          Alcotest.test_case "quantity bounds" `Quick test_bom_quantities;
        ] );
    ]
