(** Fact store for the bottom-up Datalog engines: predicate name → set of
    ground tuples, with hash indexes per (predicate, bound positions).
    Values are persistent; indexes are maintained delta-incrementally
    along the linear chain of stores an engine produces ([add]/[add_set]
    push just the new tuples into existing indexes).  Keys on leading
    columns are answered from the ordered tuple set unless the store owns
    a warm index for the path; only other keys build indexes, and older
    snapshots build theirs privately on demand. *)

open Dc_relation

module TS = Relation.Tuple_set

type t

val empty : unit -> t
val find : t -> string -> TS.t
val cardinal : t -> string -> int
val total : t -> int
val mem : t -> string -> Tuple.t -> bool

val add : t -> string -> Tuple.t -> t
val add_set : t -> string -> TS.t -> t

val remove : t -> string -> Tuple.t -> t
(** Persistent deletion.  On the cache-owning store the departed tuple is
    also dropped from every cached index of the predicate (the deletion
    mirror of delta-incremental [add]); older snapshots rebuild private
    indexes on demand as usual.  No-op when the tuple is absent. *)

val remove_set : t -> string -> TS.t -> t
val singleton_set : string -> TS.t -> t
val add_list : t -> (string * Tuple.t) list -> t
(** Add (predicate, tuple) pairs: one {!add_set} per predicate. *)

val of_list : (string * Tuple.t) list -> t

val preds : t -> string list
val iter : (string -> Tuple.t -> unit) -> t -> unit
val equal : t -> t -> bool

val lookup : t -> string -> int list -> Tuple.t -> Tuple.t list
(** [lookup store pred positions key]: tuples of [pred] whose projection
    onto [positions] equals [key] ([positions = []] returns all).  A warm
    index the store owns for the path answers it; otherwise a key on
    every column is a membership test and a key on the leading columns
    [0..j-1] (in any order) a range scan of the ordered set.  Only a key
    on other columns builds (and caches) a hash index. *)

val lookup_values : t -> string -> int list -> Value.t list -> Tuple.t list
(** {!lookup} with the key as a value list (the executor's form). *)

val prewarm : t -> string -> int list -> unit
(** Build the (pred, positions) index now, for any path.  A fixpoint that
    probes one growing store every round prewarms its keyed paths once so
    they stay warm hash indexes. *)

val drop_prefix_paths : t -> unit
(** Drop the indexes this store owns on leading-column paths, which
    range scans answer without one.  A long-lived store updated by small
    deltas (a maintained view) would otherwise extend them on every
    step; a fixpoint's {!prewarm}ed leading paths only cost it there. *)

val index_builds : string -> int
(** Hash indexes built over the predicate so far in this process (any
    store) — the machine-independent cost witness of the access paths. *)

val freeze : t -> t
(** An immutable published view of the store (O(1): the tuple map is
    persistent).  A frozen store may be read from several threads at
    once: it never installs an index cache and never touches the live
    ownership chain it was frozen from. *)

val is_frozen : t -> bool

val to_relation : Schema.t -> t -> string -> Relation.t
(** O(1): the relation shares the predicate's tuple set.  Like
    {!Relation.of_set_unchecked}, it checks nothing. *)

val of_relation : string -> Relation.t -> t -> t

val pp : t Fmt.t
