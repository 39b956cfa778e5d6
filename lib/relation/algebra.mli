(** Set-oriented relational algebra: the execution primitives of the
    paper's "set-construction framework" (§1, §4). *)

val select : (Tuple.t -> bool) -> Relation.t -> Relation.t

val project : int list -> Relation.t -> Relation.t
(** Projection onto positions (in order); duplicates eliminated, result
    keyed on the whole tuple. *)

val rename : string list -> Relation.t -> Relation.t
(** Positional attribute rename. *)

val product : Relation.t -> Relation.t -> Relation.t
(** Cartesian product; result tuples are concatenations. *)

val join : on:(int * int) list -> Relation.t -> Relation.t -> Relation.t
(** Hash equi-join; [on] pairs positions of the left and right operand.
    Result tuples are concatenations (left then right). *)

val semijoin : on:(int * int) list -> Relation.t -> Relation.t -> Relation.t
(** Tuples of the left operand that match some tuple of the right. *)

val compose : Relation.t -> Relation.t -> Relation.t
(** Composition of binary relations:
    [{ <x, z> | <x, y> IN a /\ <y, z> IN b }]. *)

val transitive_closure : Relation.t -> Relation.t
(** Semi-naive transitive closure of a binary relation; the hand-optimized
    reference the generic constructor fixpoint is validated against. *)
