(** The transitive closure of a binary relation by graph traversal.

    The base's nodes are ranked once by {!Dc_relation.Value.compare} and
    its edges laid out as an adjacency over the ranks; every selected
    source is traversed once and its targets come out in rank order. *)

open Dc_relation

(** Which pairs of the closure to produce. *)
type seed =
  | Every  (** every pair: a traversal from every source *)
  | From of Value.t  (** the pairs [(v, _)]: one traversal from [v] *)
  | To of Value.t
      (** the pairs [(_, v)]: one traversal from [v] over the reversed
          edges *)

val pp_seed : seed Fmt.t

val iter :
  ((Tuple.t -> unit) -> unit) -> seed -> (Value.t -> Value.t -> unit) -> int
(** [iter edges seed emit] calls [emit a b] once for each pair [(a, b)]
    the seed selects from the transitive closure of the pairs
    [(t.0, t.1)] that [edges] yields, in increasing [(a, b)] order, and
    returns the number of traversals run. *)
