(** Per-evaluation cache of hash indexes, keyed on the {e physical
    identity} of the indexed relation plus the indexed positions.

    Because relations are immutable, identity keying makes hits trivially
    sound. Fixpoint loops call {!advance} when a recursive relation grows
    monotonically, so an access path is built once per fixpoint and then
    extended by per-round deltas instead of being rebuilt every round. *)

type t

val create : ?cap:int -> unit -> t
(** A fresh cache holding at most [cap] (default 64) entries, evicted
    LRU-ish. *)

val get : t -> int list -> Relation.t -> Index.t
(** [get c positions rel] returns the cached index for exactly this
    relation value (physical identity) and positions, building and
    caching it on a miss. *)

val advance : t -> old_rel:Relation.t -> delta:Relation.t -> next:Relation.t -> unit
(** [advance c ~old_rel ~delta ~next] upgrades every entry indexed on
    [old_rel] that was hit by {!get} since its last advance: extends its
    index with [delta]'s tuples in place and re-keys it to [next].
    Entries on [old_rel] that went unprobed are dropped instead of grown.
    Sound only when [next = union old_rel delta] and [delta] is disjoint
    from [old_rel]. *)

val clear : t -> unit

val length : t -> int
(** Current number of cached entries. *)

val protect : t -> (unit -> 'a) -> 'a
(** [protect c f] runs [f] in a cache transaction: if [f] raises, every
    mutation the cache saw meanwhile — entries added or evicted by
    {!get}, and the in-place index extensions and re-keyings done by
    {!advance} — is rolled back, leaving the cache observationally
    identical to its state before the call, and the exception is
    re-raised.  Nested calls join the outermost transaction.  This is
    what makes an aborted constructor expansion atomic. *)

type snapshot = (Relation.t * int list * Tuple.t list * bool) list
(** One [(relation, positions, indexed tuples, warm)] per entry, in
    entry order. *)

val snapshot : t -> snapshot
(** Deep observational capture of the cache (entry order, keyed
    relations, index contents, warm flags) — for atomicity tests. *)

val snapshot_equal : snapshot -> snapshot -> bool
