(** Atomic attribute values of the DBPL data model (paper §2.1). *)

type t =
  | Int of int
  | Str of string
  | Bool of bool
  | Float of float

(** Scalar types of the DBPL type calculus. *)
type ty =
  | TInt
  | TStr
  | TBool
  | TFloat

val type_of : t -> ty
(** [type_of v] is the scalar type of [v]. *)

val type_name : ty -> string
(** DBPL keyword spelling of a scalar type, e.g. [TInt -> "INTEGER"]. *)

val compare : t -> t -> int
(** Total order; values of distinct types are ordered by type tag. *)

val equal : t -> t -> bool

val hash : t -> int

(** {1 Interning}

    The runtime kernel hash-conses strings: [str]/[intern] return values
    whose payload is the canonical, physically unique string for its
    content, so [equal]/[compare] on two interned values decide string
    equality by pointer identity. Interning is optional — a [Str] built
    directly from a raw string remains fully supported, it merely skips
    the fast path. *)

val str : string -> t
(** [str s] is [Str c] where [c] is the canonical interned copy of [s].
    Preferred constructor for strings on hot paths. *)

val intern : t -> t
(** Canonicalize the payload of a [Str]; identity on other values. *)

val interned_count : unit -> int
(** Number of distinct strings in the intern pool. *)

val pp : t Fmt.t
val pp_ty : ty Fmt.t
val to_string : t -> string

exception Type_error of string
(** Raised by arithmetic on incompatible operands; the static type checker
    prevents this for elaborated programs. *)

val add : t -> t -> t
(** Addition ([Int]/[Float]); string concatenation on [Str]. *)

val sub : t -> t -> t
val mul : t -> t -> t
