(** Free-variable and constructor-application analyses over the calculus
    AST, as folds ({!Morph}). *)

module S = Morph.S

val free_vars_term : Ast.term -> S.t
(** Tuple variables occurring in a term. *)

val free_vars_formula : Ast.formula -> S.t
(** Free tuple variables (quantifier- and binder-bound ones removed). *)

val free_vars_range : Ast.range -> S.t

(** A constructor-application occurrence: [base{con(args)}]. *)
type app = {
  app_con : string;
  app_base : Ast.range;
  app_args : Ast.arg list;
}

val apps_of_range : Ast.range -> app list
(** Every [Construct] occurrence, in traversal order. *)
