(* Synthetic graph workloads for the recursive-query experiments.

   All generators produce binary relations over string node names
   ("n0", "n1", ...) with schema (src, dst); seeds make them reproducible.
   The shapes match the regimes the experiments need:
   - [chain]: diameter n, one new pair per fixpoint round — worst case for
     naive iteration, linear for semi-naive;
   - [cycle]: strongly connected — SLD resolution diverges (E2);
   - [binary_tree]: logarithmic diameter, fan-out joins;
   - [random_graph]: G(n, m) uniform sparse graphs;
   - [layered]: DAG of w nodes per layer, complete bipartite between
     adjacent layers — exponential path multiplicity, the duplicated
     subproof regime for proof-oriented evaluation (E2);
   - [two_chains]: disconnected components — selectivity of pushed
     restrictions (E4);
   - [chains_dag]: parallel chains with forward shortcuts — the closure
     view that incremental maintenance keeps under bridge updates. *)

open Dc_relation
open Dc_core

let node i = Value.str (Fmt.str "n%d" i)

let node_name i = Fmt.str "n%d" i

let edge_schema = Constructor.binary_schema Value.TStr

let of_pairs pairs =
  Relation.of_list edge_schema
    (List.map (fun (a, b) -> Tuple.make2 (node a) (node b)) pairs)

let chain n = of_pairs (List.init n (fun i -> (i, i + 1)))

let cycle n = of_pairs (List.init n (fun i -> (i, (i + 1) mod n)))

let binary_tree depth =
  let rec edges i acc =
    if i >= (1 lsl depth) - 1 then acc
    else edges (i + 1) (((i, (2 * i) + 1) :: ((i, (2 * i) + 2) :: acc)))
  in
  of_pairs (edges 0 [])

let weighted_edge_schema =
  Schema.make ~key:[ "src"; "dst" ]
    [ ("src", Value.TStr); ("dst", Value.TStr); ("w", Value.TInt) ]

(* G(n, m) with integer weights 1..max_w — distinct (src, dst) pairs, so
   the pair is a valid key; the aggregate experiments (shortest paths)
   group on it.  Positive weights keep recursive MIN terminating on the
   cycles these graphs contain. *)
let random_weighted_graph ~seed ~nodes ~edges ~max_w =
  let rng = Rng.create seed in
  let seen = Hashtbl.create (2 * edges) in
  let rec draw acc k guard =
    if k = 0 || guard = 0 then acc
    else
      let a = Rng.int rng nodes and b = Rng.int rng nodes in
      if a = b || Hashtbl.mem seen (a, b) then draw acc k (guard - 1)
      else begin
        Hashtbl.replace seen (a, b) ();
        draw ((a, b, 1 + Rng.int rng max_w) :: acc) (k - 1) (guard - 1)
      end
  in
  Relation.of_list weighted_edge_schema
    (List.map
       (fun (a, b, w) -> Tuple.of_list [ node a; node b; Value.Int w ])
       (draw [] edges (100 * edges)))

(* G(n, m): m distinct directed edges drawn uniformly (no self loops). *)
let random_graph ~seed ~nodes ~edges =
  let rng = Rng.create seed in
  let seen = Hashtbl.create (2 * edges) in
  let rec draw acc k guard =
    if k = 0 || guard = 0 then acc
    else
      let a = Rng.int rng nodes and b = Rng.int rng nodes in
      if a = b || Hashtbl.mem seen (a, b) then draw acc k (guard - 1)
      else begin
        Hashtbl.replace seen (a, b) ();
        draw ((a, b) :: acc) (k - 1) (guard - 1)
      end
  in
  of_pairs (draw [] edges (100 * edges))

(* [layers] layers of [width] nodes; every node of layer i points to every
   node of layer i+1.  Node ids: layer * width + slot. *)
let layered ~layers ~width =
  let pairs = ref [] in
  for l = 0 to layers - 2 do
    for a = 0 to width - 1 do
      for b = 0 to width - 1 do
        pairs := ((l * width) + a, ((l + 1) * width) + b) :: !pairs
      done
    done
  done;
  of_pairs !pairs

(* Two disjoint chains of length n; the second one's nodes are offset. *)
let two_chains n =
  of_pairs
    (List.init n (fun i -> (i, i + 1))
    @ List.init n (fun i -> (100000 + i, 100000 + i + 1)))

(* [chains] chains of [len] nodes plus seeded forward shortcuts inside a
   chain (position p to some q >= p + 2) until there are [edges] edges.
   Node ids are a seeded permutation, so the closure's tuple order says
   nothing about the chain structure; [at c p] is the node at position p
   of chain c.  The shape of a maintained closure view under bridge
   updates: a bridge from one chain's tail into another chain adds or
   removes (ancestors x descendants) closure rows at once. *)
let chains_dag ~seed ~chains ~len ~edges =
  let rng = Rng.create seed in
  let perm = Array.init (chains * len) Fun.id in
  Rng.shuffle rng perm;
  let at c p = perm.((c * len) + p) in
  let seen = Hashtbl.create (2 * edges) in
  let base =
    List.concat
      (List.init chains (fun c -> List.init (len - 1) (fun p -> (c, p, p + 1))))
  in
  List.iter (fun e -> Hashtbl.replace seen e ()) base;
  let rec shortcuts acc k guard =
    if k <= 0 || guard = 0 || len < 3 then acc
    else
      let c = Rng.int rng chains and p = Rng.int rng (len - 2) in
      let q = p + 2 + Rng.int rng (len - p - 2) in
      if Hashtbl.mem seen (c, p, q) then shortcuts acc k (guard - 1)
      else begin
        Hashtbl.replace seen (c, p, q) ();
        shortcuts ((c, p, q) :: acc) (k - 1) (guard - 1)
      end
  in
  let all =
    base @ shortcuts [] (edges - List.length base) (100 * max 1 edges)
  in
  (of_pairs (List.map (fun (c, p, q) -> (at c p, at c q)) all), at)

(* ------------------------------------------------------------------ *)
(* Scenes for the mutually recursive ahead/above experiments: a row of
   [depth] objects each in front of the next, with a stack of [stack]
   objects on top of every second object. *)

let scene ~depth ~stack =
  let infront =
    Relation.of_list
      (Constructor.infront_schema Value.TStr)
      (List.init depth (fun i ->
           Tuple.make2 (node i) (node (i + 1))))
  in
  let ontop_pairs = ref [] in
  for i = 0 to depth - 1 do
    if i mod 2 = 0 then
      for s = 0 to stack - 1 do
        let item k = Value.str (Fmt.str "s%d_%d" i k) in
        let below = if s = 0 then node i else item (s - 1) in
        ontop_pairs := Tuple.make2 (item s) below :: !ontop_pairs
      done
  done;
  let ontop =
    Relation.of_list (Constructor.ontop_schema Value.TStr) !ontop_pairs
  in
  (infront, ontop)

(* ------------------------------------------------------------------ *)
(* Same-generation workloads: a balanced tree of [depth] as Up edges (child
   -> parent), Down its inverse, Flat the sibling relation at the root. *)

let same_generation_tree depth =
  let up = ref [] and down = ref [] in
  let rec build i d =
    if d < depth then begin
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      up := (l, i) :: (r, i) :: !up;
      down := (i, l) :: (i, r) :: !down;
      build l (d + 1);
      build r (d + 1)
    end
  in
  build 0 0;
  (of_pairs !up, of_pairs [ (1, 2) ], of_pairs !down)
