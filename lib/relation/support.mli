(** Derivation-count bookkeeping for incrementally maintained extents:
    per derived tuple, the number of distinct rule derivations currently
    producing it.  Under an update a tuple leaves its extent exactly when
    the count drops to zero and enters when it rises from zero — the
    counting algorithm's fast path for non-recursive predicates (recursive
    components fall back to delete-and-rederive, where counts are
    unsound). *)

type t

val create : unit -> t

val count : t -> string -> Tuple.t -> int
(** Current count (0 when untracked). *)

val set : t -> string -> Tuple.t -> int -> unit
(** Overwrite a count; 0 untracks the tuple. *)

val add : t -> string -> Tuple.t -> int -> int * int
(** [add s pred tuple d] adjusts the count by [d] and returns
    [(old, new)] — callers classify by the zero-crossing direction. *)

val clear_pred : t -> string -> unit
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

val dump : t -> (string * (Tuple.t * int) list) list
(** Deterministic full dump, sorted by predicate then tuple — what a
    checkpoint writes and recovery restores via {!set}. *)

val pp : t Fmt.t
