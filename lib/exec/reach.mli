(** Regular path queries by graph traversal.

    The endpoints of every label's edges are ranked once by
    {!Dc_relation.Value.compare}; every selected source is traversed
    once in product with the automaton, and its answers come out in
    rank order.  The closure of one relation is the one-state automaton
    {!closure}. *)

open Dc_relation

(** Which pairs of the root's relation to produce. *)
type seed =
  | Every  (** every pair: a traversal from every source *)
  | From of Value.t  (** the pairs [(v, _)]: one traversal from [v] *)
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

val iter :
  ((Tuple.t -> unit) -> unit) array ->
  automaton ->
  seed ->
  (Value.t -> Value.t -> unit) ->
  int
(** [iter labels a seed emit] calls [emit x y] once for each pair
    [(x, y)] the seed selects from [L(a.root)], label [l] being the pairs
    [(t.0, t.1)] that [labels.(l)] yields, in increasing [(x, y)] order,
    and returns the number of traversals run. *)
