(** Regular path queries by graph traversal.

    The endpoints of every label's edges are numbered once, and ranked
    by {!Dc_relation.Value.compare}; a selected source is traversed in
    product with the automaton, and its answers come out as one block in
    rank order.  Sources in one strongly connected component of that
    product share their first source's traversal and block.  The closure
    of one relation is the one-state automaton {!closure}. *)

open Dc_relation

(** Which pairs of the root's relation to produce. *)
type seed =
  | Every  (** every pair: a traversal from every source *)
  | From of Value.t list
      (** the pairs [(v, _)] for each listed [v]: one traversal from each
          distinct source *)
  | To of Value.t
      (** the pairs [(_, v)]: one traversal from [v] over the reversed
          edges and the reversed automaton *)

val pp_seed : seed Fmt.t

type automaton = {
  linear : [ `Right | `Left ];
  exits : int list array;
      (** per state, the labels of its exit branches *)
  steps : (int * int) list array;
      (** per state, its recursive branches: [(l, q')] composes label [l]
          with state [q'] *)
  root : int;  (** the state whose pairs the traversal produces *)
}
(** A regular system of binary relations over numbered labels.  State
    [q] denotes the least relation [L(q)] containing each of its exits'
    labels and, for each step [(l, q')], [l ∘ L(q')] when [linear] is
    [`Right] or [L(q') ∘ l] when it is [`Left], [∘] being the chain
    composition [{(a, c) | (a, b) ∈ x, (b, c) ∈ y}] of [x ∘ y]. *)

val closure : automaton
(** The transitive closure of label 0: one right-linear state [L = l ∪ l ∘ L]. *)

type graph
(** The labels' edges over their numbered endpoints: built once, read by
    any number of {!run}s and {!upstream}s. *)

val graph : ((Tuple.t -> unit) -> unit) array -> graph
(** Label [l] is the pairs [(t.0, t.1)] that [labels.(l)] yields. *)

val revise : graph -> int -> added:Tuple.t list -> removed:Tuple.t list -> graph option
(** [revise g l ~added ~removed] is [g] after label [l] gains the edges
    [added] (absent from it) and loses [removed], every node keeping its
    rank, or [None] when an added edge has an endpoint [g] does not
    number: then the graph must be built again.  A node left without
    edges stays numbered and has no pairs. *)

val nodes : graph -> Value.t array
(** Every endpoint of the labels' edges once, strictly increasing: node
    [r]'s rank is [r].  Not to be mutated. *)

val run : graph -> automaton -> seed -> (int -> int array -> unit) -> int
(** [run g a seed emit] calls [emit x answers] once for each source
    [(nodes g).(x)] with pairs the seed selects from [L(a.root)], in
    increasing [x] order: its pairs are [(x, y)] for each [y] of
    [answers], a non-empty block of ranks in increasing order, so the
    pairs come in their {!Tuple.compare} order.  A block is not to be
    mutated, and [run] never changes one it has handed out, so a caller
    may keep it as it is.  Sources of one strongly connected component
    of the product of the graph and the automaton have the same answers:
    an [Every] or several [From] sources traverse once per component,
    and each later source of a component is handed its first source's
    block, the same array.
    Returns the number of sources selected (each [Every] node, the
    distinct [From] sources present in [g], one for [To]). *)

val upstream : graph -> Value.t list -> Value.t list
(** [upstream g targets]: the targets and every node from which a path
    of edges of any labels leads to one of them, in increasing order.
    Whatever the automaton, a source whose pairs depend on an edge
    [(u, _)] is among [upstream g [u]]. *)
