(** Augmented quant graphs (paper §4, Fig 3): quant nodes per tuple
    variable with join-term arcs, plus special constructor-head nodes with
    attribute-relationship arcs and application arcs — the equivalent of a
    clause interconnectivity graph [Sick 76].  Cycles correspond to
    recursion. *)

open Dc_calculus

type node =
  | Quant of {
      var : Ast.var;
      range : Ast.range;
      owner : string option;  (** constructor owning this binder, if any *)
    }
  | Head of { con : string }

type edge = {
  src : int;
  dst : int;
  label : string;
}

type t = {
  nodes : node array;
  edges : edge list;
}

val build :
  lookup:(string -> Defs.constructor_def option) -> Ast.range -> t
(** Build the augmented graph of a query, expanding each referenced
    constructor definition once. *)

val sccs : t -> int list list
(** Strongly connected components over node indices. *)

val is_recursive : t -> bool

val recursive_constructors : t -> string list
(** Constructors whose head nodes lie on recursive cycles. *)

val pp : t Fmt.t
(** Text rendering in the spirit of the paper's Fig 3. *)
