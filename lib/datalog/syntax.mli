(** Function-free Horn clauses (Datalog) — the comparison formalism of
    paper §3.4, with the extensions the experiments need: built-in
    comparison literals and (stratified) negation. *)

open Dc_relation

type binop = Dc_calculus.Ast.binop

type term =
  | Var of string
  | Const of Value.t
  | Binop of binop * term * term
      (** computed value: rule heads and tests only; engines reject it in
          body atom argument positions *)

type cmpop = Dc_calculus.Ast.cmpop

type atom = {
  pred : string;
  args : term list;
}

type lit =
  | Pos of atom
  | Neg of atom
  | Test of cmpop * term * term  (** built-in comparison *)

type rule = {
  head : atom;
  body : lit list;
}

type program = rule list

(** {1 Builders} *)

val var : string -> term
val const : Value.t -> term
val cint : int -> term
val cstr : string -> term
val atom : string -> term list -> atom
val rule : atom -> lit list -> rule
val fact : string -> Value.t list -> rule

(** {1 Analyses} *)

val term_vars : term -> string list
val atom_vars : atom -> string list
val lit_vars : lit -> string list
val rule_vars : rule -> string list
val is_ground_atom : atom -> bool

val unsafe_vars : rule -> string list
(** Head/negation/test variables missing from every positive body atom
    (range restriction). *)

exception Unsafe_rule of rule

val check_safe : program -> unit
(** @raise Unsafe_rule on the first unsafe rule. *)

module SS : Set.S with type elt = string

val idb_preds : program -> SS.t
(** Predicates defined by rule heads. *)

val body_preds : rule -> string list
val edb_preds : program -> SS.t
(** Predicates referenced only in bodies. *)

(** {1 Printing} *)

val pp_term : term Fmt.t
val pp_atom : atom Fmt.t
val pp_lit : lit Fmt.t
val pp_rule : rule Fmt.t
val pp_program : program Fmt.t
