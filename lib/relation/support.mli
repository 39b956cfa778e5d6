(** Derivation-count bookkeeping for incrementally maintained extents:
    per derived tuple, the number of one-step rule instances currently
    deriving it.  For non-recursive predicates a tuple leaves its extent
    exactly when the count drops to zero and enters when it rises from
    zero — the counting algorithm.  Recursive components keep the same
    counts but never delete by them (a cycle can keep a count positive
    through derivations that depend on the deleted tuple itself):
    delete-and-rederive's over-deletion decides what leaves, and the
    count replaces the rederive search — an over-deleted tuple whose
    count is still positive has a derivation from the surviving facts. *)

type t

val create : unit -> t

val count : t -> string -> Tuple.t -> int
(** Current count (0 when untracked). *)

val set : t -> string -> Tuple.t -> int -> unit
(** Overwrite a count; 0 untracks the tuple. *)

val add : t -> string -> Tuple.t -> int -> int * int
(** [add s pred tuple d] adjusts the count by [d] and returns
    [(old, new)] — callers classify by the zero-crossing direction. *)

val share : t -> string -> Relation.Tuple_set.t -> unit
(** [share s pred tuples]: every counted tuple of [pred] equal to one of
    [tuples] is keyed by that one until {!add} next adjusts its count —
    after a pass that counted freshly built tuples, the counts then hold
    no tuple of their own beside the fact store's.  Counts are
    unchanged. *)

val build : t -> string -> size:int -> ((Tuple.t -> unit) -> unit) -> unit
(** [build s pred ~size f]: a count pass.  [pred]'s counts become, per
    tuple, the number of times [f] passes it to its argument, in a fresh
    table sized for about [size] tuples; an undo log records the one
    table swap, not every count. *)

val reset : t -> unit
val iter_pred : t -> string -> (Tuple.t -> int -> unit) -> unit

val total : t -> int
(** Number of tracked tuples across all predicates. *)

val begin_undo : t -> unit
(** Start an undo log: until {!commit} or {!rollback}, every mutation
    records the count (or table) it overwrote. *)

val commit : t -> unit
(** Keep the changes since {!begin_undo} and drop the log. *)

val rollback : t -> unit
(** Replay the log newest first, restoring the state {!begin_undo} saw —
    the rollback of a failed maintenance step, in time proportional to
    what the step changed. *)

val dump : ?keep:(string -> bool) -> t -> (string * (Tuple.t * int) list) list
(** Deterministic dump of the tables of the predicates [keep] accepts
    (default: all), sorted by predicate then tuple — what a checkpoint
    writes and recovery restores via {!set}. *)

val pp : t Fmt.t
