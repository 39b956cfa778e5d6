(** One fold and one map over the calculus AST, both aware of binders.

    Every structural walker of the calculus is an instance of one of the
    two: free variables and constructor applications ({!Vars}), the §3.3
    occurrence count ({!Positivity}) and polarity ({!Normalize}),
    parameter substitution, renaming, retyping, decompilation and
    restriction pushdown.

    Scoping is the evaluator's: [SOME v IN r (p)] and [ALL v IN r (p)]
    bind [v] in [p], not in [r]; a branch's binders are sequential — a
    binder's range sees the binders before it, the target and WHERE
    clause see them all. *)

open Ast

module S : Set.S with type elt = string

(** {1 Fold} *)

(** Callbacks of a fold, called in pre-order (a node before its parts). *)
type 'a fold = {
  term : S.t -> 'a -> term -> 'a;
      (** every term node (subterms included), with the tuple variables
          bound at that point *)
  var : S.t -> 'a -> var -> 'a;
      (** the tuple variable of each [v IN range], with the bound ones *)
  range : int -> 'a -> range -> 'a;
      (** every range node, with its depth: the number of enclosing NOTs
          and ALL-range positions (§3.3) *)
}

val skip : 'a fold
(** Callbacks that return the accumulator unchanged. *)

val fold_term : 'a fold -> 'a -> term -> 'a
val fold_formula : 'a fold -> 'a -> formula -> 'a
val fold_range : 'a fold -> 'a -> range -> 'a
val fold_branch : 'a fold -> 'a -> branch -> 'a
(** Each starts at depth 0 with no variable bound. *)

(** {1 Map} *)

(** Callbacks of a map, threading a caller environment ['env]. *)
type 'env map = {
  bind : 'env -> var -> range -> range -> 'env;
      (** entering the scope of an [EACH], [SOME] or [ALL] binder: the
          variable, its range as written and as rewritten *)
  var : 'env -> var -> var;  (** the tuple variable of each [v IN range] *)
  term : 'env -> term -> term;
      (** every term node, after its subterms were rewritten; the result
          is not traversed again *)
  range : 'env -> range -> range;
      (** every range node, after its parts were rewritten; the result is
          not traversed again *)
}

val id : 'env map
(** Identity callbacks: the map copies the tree. *)

val map_term : 'env map -> 'env -> term -> term
val map_formula : 'env map -> 'env -> formula -> formula
val map_range : 'env map -> 'env -> range -> range
val map_branch : 'env map -> 'env -> branch -> branch

val subst_params : (string * term) list -> 'env map
(** Substitute terms for scalar parameter names. *)
