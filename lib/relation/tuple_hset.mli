(** Mutable open-addressing tuple sets: the in-round dedup sets of the
    fixpoint loops, the seen-set of the IR's [Distinct], and the novelty
    tables of the semi-naive engines.

    A set belongs to one evaluation (or one pool worker of it) and is
    never written by two domains; {!clear} keeps the allocation so one
    set serves every round of a fixpoint.

    Every slot carries a one-byte stamp: the set's own round (counted by
    {!next_round}, 1 to 255, wrapping with every stamp cleared) that last
    {!visit}ed it.  A novelty table holds every known tuple of a relation,
    and one {!visit} per emitted tuple tells a round's rediscoveries and
    in-round repeats from its new tuples. *)

type t

val create : unit -> t
(** An empty set of 16 slots; it doubles whenever it is half full.  Its
    round is 1. *)

val add : t -> Tuple.t -> bool
(** Insert; [true] iff the tuple was not yet present.  Not a visit: an
    added tuple is unvisited in the current round. *)

val mem : t -> Tuple.t -> bool

val count : t -> int
(** The number of tuples in the set. *)

type visit =
  | Repeat  (** present and already visited this round *)
  | Known  (** present, first visited this round (now stamped) *)
  | Fresh  (** absent: inserted, and stamped with this round *)

val visit : t -> Tuple.t -> visit
(** One probe: insert-or-stamp the tuple in the current round. *)

val next_round : t -> unit
(** Start a new round: no tuple counts as visited in it yet.  Every 255th
    call clears all stamps (one pass over the stamp bytes). *)

val clear : t -> unit
(** Empty the set, keeping its capacity and its round. *)

val release : t -> unit
(** Empty the set and give its slot array back to the GC: a 16-slot set
    remains, as from {!create}.  For a table that is done before its
    owner is, such as a converged fixpoint's novelty tables. *)
