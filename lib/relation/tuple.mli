(** Tuples: immutable sequences of {!Value.t}, the elements of relations.

    The representation is abstract; it caches the structural hash at
    construction so set and hash-table operations over tuples cost an
    integer read instead of an array walk. *)

type t

val arity : t -> int

val of_list : Value.t list -> t
val to_list : t -> Value.t list

val init : int -> (int -> Value.t) -> t
(** [init n f] is the tuple [<f 0, ..., f (n-1)>]. *)

val get : t -> int -> Value.t

val iter : (Value.t -> unit) -> t -> unit
(** The cells in position order. *)

val make1 : Value.t -> t
val make2 : Value.t -> Value.t -> t
val make3 : Value.t -> Value.t -> Value.t -> t

val compare : t -> t -> int
(** Lexicographic order; shorter tuples sort first. *)

val equal : t -> t -> bool
(** Structural equality with a cached-hash fast path. *)

val hash : t -> int
(** Memoized in the tuple on first use; the 31-polynomial over
    {!Value.hash} of the cells. *)

val project : t -> int list -> t
(** [project t positions] keeps the listed positions in the given order. *)

val project_arr : t -> int array -> t
(** Like {!project} with precompiled positions — the index hot path. *)

val well_typed : Schema.t -> t -> bool
(** Does the tuple conform to the schema (arity and per-position type)? *)

val in_domain : Schema.t -> t -> bool
(** {!well_typed} plus the §2.1 domain refinements of every attribute. *)

val concat : t -> t -> t

val pp : t Fmt.t
val to_string : t -> string
