(** Relations: finite typed sets of tuples with the key constraint of
    paper §2.2.

    Values are persistent; every update returns a new relation. Operations
    that admit a tuple enforce (a) schema conformance and (b) uniqueness of
    the key image, raising {!Type_mismatch} / {!Key_violation} exactly where
    DBPL's generated run-time checks would raise an exception.

    A relation's rows are a balanced tree or a run (a strictly increasing
    array, from {!of_sorted_unchecked}); which one is decided by how the
    relation was built and is not observable except in cost. *)

module Tuple_set : Set.S with type elt = Tuple.t
(** The ordered tuple sets relations are made of ({!Tuple.compare}
    order, lexicographic by column). *)

type t

exception Key_violation of string
exception Type_mismatch of string

val schema : t -> Schema.t

val empty : Schema.t -> t

val of_list : Schema.t -> Tuple.t list -> t
(** @raise Key_violation / Type_mismatch per offending tuple. *)

val of_pairs : Schema.t -> (Value.t * Value.t) list -> t
(** Convenience for binary relations. *)

val cardinal : t -> int
val is_empty : t -> bool
val mem : Tuple.t -> t -> bool

val to_list : t -> Tuple.t list
(** In increasing {!Tuple.compare} order. *)

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Tuple.t -> unit) -> t -> unit
val exists : (Tuple.t -> bool) -> t -> bool
val for_all : (Tuple.t -> bool) -> t -> bool
val choose_opt : t -> Tuple.t option

val prefix_scan : Tuple_set.t -> Value.t list -> Tuple.t list
(** [prefix_scan set key]: the tuples of [set] whose first
    [List.length key] cells equal [key], in set order — a range scan of
    the ordered set, with no index built. *)

val lookup_prefix : t -> Value.t list -> Tuple.t list
(** {!prefix_scan} over the relation's rows; on a run, two binary
    searches. *)

val add : Tuple.t -> t -> t
(** Checked insertion.
    @raise Type_mismatch if the tuple does not conform to the schema.
    @raise Key_violation if a different tuple with the same key image is
    already present. *)

val add_unchecked : Tuple.t -> t -> t
(** Insertion without the key check (asserts well-typedness); used by the
    fixpoint engine on derived relations with whole-tuple keys. *)

val of_set_unchecked : Schema.t -> Tuple_set.t -> t
(** O(1) wrap of an existing tuple set; checks nothing.  The caller
    vouches that every tuple is well typed for the schema and that the
    schema's key is the whole tuple. *)

val sorted_set : Tuple.t array -> Tuple_set.t
(** The set of a strictly increasing ({!Tuple.compare}) array, built in
    linear time. *)

val of_sorted_unchecked : Schema.t -> Tuple.t array -> t
(** The relation of a strictly increasing ({!Tuple.compare}) array: an
    O(1) wrap of the array as a run, which the caller must not mutate
    afterwards.  Reads work on the run in place; any other set operation
    builds its tree once ({!sorted_set}) and keeps it.  Checks nothing, as
    {!of_set_unchecked}. *)

val remove : Tuple.t -> t -> t

val violates_key : t -> Tuple.t -> bool
(** Would adding this (absent) tuple violate the key constraint? *)

val check_key : t -> unit
(** Check the key constraint over the whole relation (one built with
    {!add_unchecked}, say).
    @raise Key_violation if two tuples share a key image. *)

val union : t -> t -> t
(** Schema-compatible union (left schema wins).
    @raise Key_violation if merging keyed relations collides. *)

val inter : t -> t -> t
val diff : t -> t -> t
val filter : (Tuple.t -> bool) -> t -> t

val with_schema : Schema.t -> t -> t
(** Re-view the relation at a positionally compatible schema (attribute
    names and keys taken from the new schema; rows shared, a run as a
    run).
    @raise Type_mismatch if the schemas are not compatible. *)

val equal : t -> t -> bool
(** Same tuple set under compatible schemas. *)

val subset : t -> t -> bool
val compare_tuples : t -> t -> int
(** Total order on the tuple sets; [0] at once when both share one set
    or one run. *)

val partition_hash : shards:int -> t -> t array
(** Hash-partition into [shards] disjoint covering relations keyed on the
    cached structural tuple hash; deterministic for a fixed shard count.
    [shards <= 1] returns the relation unsplit. *)

val pp : t Fmt.t
(** Set-brace rendering, e.g. [{<1, 2>, <2, 3>}]. *)

val pp_table : t Fmt.t
(** Aligned textual table with header, used by the CLI and examples. *)
