(** Mutable open-addressing tuple sets: the in-round dedup set of the
    fixpoint loops and the seen-set of the IR's [Distinct].

    A set belongs to one evaluation (or one pool worker of it) and is
    never shared between domains; {!clear} keeps the allocation so one
    set serves every round of a fixpoint. *)

type t

val create : unit -> t
(** An empty set of 16 slots; it doubles whenever it is half full. *)

val add : t -> Tuple.t -> bool
(** Insert; [true] iff the tuple was not yet present. *)

val clear : t -> unit
(** Empty the set, keeping its capacity. *)
