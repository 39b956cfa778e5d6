(** Relation schemas with key constraints (paper §2.2).

    A schema models a DBPL relation type
    [reltype = RELATION key OF elementtype]: a list of named, typed
    attributes together with the positions of the key attributes. *)

(** Domain refinements (paper §2.1, e.g. [partidtype IS RANGE 1..100]):
    symbolic domain predicates attached to attributes, enforced by the
    generated run-time checks whenever a tuple enters a relation. *)
type refinement =
  | No_refinement
  | Int_range of int * int  (** inclusive bounds *)

val satisfies_refinement : refinement -> Value.t -> bool

type attr = {
  attr_name : string;
  attr_ty : Value.ty;
  attr_refine : refinement;
}

type t

exception Schema_error of string

val make :
  ?key:string list ->
  ?refinements:(string * refinement) list ->
  (string * Value.ty) list ->
  t
(** [make ~key attrs] builds a schema. [key] lists the key attribute names;
    omitted or empty means the whole tuple is the key (the DBPL default for
    set-valued relations, making the §2.2 key constraint vacuous).
    [refinements] attaches §2.1 domain predicates by attribute name.
    @raise Schema_error on empty or duplicate attributes / unknown key. *)

val arity : t -> int

val attr_names : t -> string list
val attr_types : t -> Value.ty list

val attr_types_array : t -> Value.ty array
(** Positional attribute types as an array, precomputed at [make] time.
    The returned array is owned by the schema — do not mutate. *)

val find_attr : t -> string -> int option
(** Position of a named attribute, if any. *)

val attr_index : t -> string -> int
(** @raise Schema_error if the attribute does not exist. *)

val attr_ty : t -> int -> Value.ty
val attr_name : t -> int -> string
val attr_refinement : t -> int -> refinement

val refinements : t -> (string * refinement) list
(** The non-trivial refinements, by attribute name. *)

val key_positions : t -> int list
(** Positions of key attributes, strictly increasing. *)

val key_is_whole_tuple : t -> bool

val compatible : t -> t -> bool
(** Positional type compatibility (union compatibility); attribute names
    may differ. *)

val equal : t -> t -> bool

val project : t -> int list -> key:string list option -> t
(** [project s positions ~key] is the schema of a projection onto
    [positions] (in the given order) with the given key. *)

val rename : t -> string list -> t
(** Rename all attributes positionally, keeping types and key positions. *)

val pp : t Fmt.t
