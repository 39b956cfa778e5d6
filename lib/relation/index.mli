(** Hash indexes: partition a relation by the values of selected attribute
    positions (the "physical access path" primitive of paper §4). *)

type t

val build : int list -> Relation.t -> t
(** [build positions rel] hashes every tuple of [rel] under the projection
    onto [positions]. *)

val create : ?size:int -> int list -> t
(** An empty index on [positions]; grow it with {!add}/{!extend}. *)

val add : t -> Tuple.t -> unit
(** Insert one tuple into its bucket. The caller is responsible for not
    inserting the same tuple twice (indexes store lists, not sets). *)

val extend : t -> Relation.t -> unit
(** [extend idx delta] adds every tuple of [delta] — the delta-incremental
    maintenance step: an index built on [r] then extended with
    [diff r' r] answers lookups exactly as one freshly built on [r']. *)

val remove : t -> Tuple.t -> unit
(** Undo one insertion of the tuple (first occurrence in its bucket);
    no-op when absent. Used to roll back {!extend} on abort. *)

val positions : t -> int list

val lookup : t -> Tuple.t -> Tuple.t list
(** Tuples whose projection equals the given key image. *)

val lookup_values : t -> Value.t list -> Tuple.t list

val buckets : t -> int
(** Number of distinct key images. *)

val iter : (Tuple.t -> Tuple.t list -> unit) -> t -> unit
