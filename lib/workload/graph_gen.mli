(** Synthetic graph workloads for the recursive-query experiments: binary
    relations over string node names ("n0", "n1", ...) with schema
    (src, dst), deterministic given the parameters/seed. *)

open Dc_relation

val node : int -> Value.t
val node_name : int -> string

val edge_schema : Schema.t

val of_pairs : (int * int) list -> Relation.t

val chain : int -> Relation.t
(** n0 → n1 → … → n(n): diameter [n] — worst case for naive iteration. *)

val cycle : int -> Relation.t
(** Strongly connected: SLD resolution diverges on it (experiment E2). *)

val binary_tree : int -> Relation.t
(** Complete binary tree of the given depth (edges parent → child). *)

val random_graph : seed:int -> nodes:int -> edges:int -> Relation.t
(** G(n, m): distinct uniform directed edges, no self loops. *)

val weighted_edge_schema : Schema.t
(** (src: STRING, dst: STRING, w: INTEGER), keyed on (src, dst). *)

val random_weighted_graph :
  seed:int -> nodes:int -> edges:int -> max_w:int -> Relation.t
(** [random_graph] with a uniform integer weight in 1..[max_w] per edge —
    the shortest-path aggregate workloads.  Distinct (src, dst) pairs;
    strictly positive weights, so recursive MIN terminates on cycles. *)

val layered : layers:int -> width:int -> Relation.t
(** Complete bipartite between adjacent layers — exponential path
    multiplicity, the duplicated-subproof regime of experiment E2. *)

val two_chains : int -> Relation.t
(** Two disjoint chains of length [n] — selectivity of pushed restrictions
    (experiment E4). *)

val chains_dag :
  seed:int ->
  chains:int ->
  len:int ->
  edges:int ->
  Relation.t * (int -> int -> int)
(** [chains] disjoint chains of [len] nodes plus seeded forward shortcuts
    within a chain (position p to q >= p + 2) up to [edges] edges (fewer
    if the chains have no room).  Node ids 0 .. chains*len-1 are a seeded
    permutation; the returned function maps (chain, position) to the node
    id there.  Acyclic. *)

val scene : depth:int -> stack:int -> Relation.t * Relation.t
(** CAD scene for the mutually recursive ahead/above experiments: a row of
    [depth] objects each in front of the next, a stack of [stack] objects
    on every second one.  Returns (Infront, Ontop). *)

val same_generation_tree : int -> Relation.t * Relation.t * Relation.t
(** Balanced binary tree of the given depth: (Up, Flat, Down) for the
    same-generation constructor. *)
