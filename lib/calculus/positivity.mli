(** The positivity constraint of paper §3.3.

    Definitions (paper, verbatim): a name appears {e under ALL} if the
    expression is [ALL r IN exp (p)] and the name appears in [exp] (names
    appearing only in [p] are not under that ALL); a name appears
    {e under NOT} if it appears in a negated factor.  An expression
    satisfies the positivity constraint when every occurrence of each
    argument relation sits under an {b even} total number of negations and
    universal quantifiers — which implies monotonicity (§3.3 lemma), so the
    §3.2 fixpoint iteration converges. *)

(** What an occurrence refers to. *)
type target =
  | Rel_name of string  (** occurrence of a named relation *)
  | App of string  (** occurrence of a constructor application *)

type occurrence = {
  occ_target : target;
  occ_depth : int;  (** number of enclosing NOTs and ALL-range positions *)
}

val occurrences_formula : Ast.formula -> occurrence list
(** Every relation-name and application occurrence, in traversal order. *)

val positive_in_formula : Ast.formula -> string -> bool
(** Every occurrence of the named relation has even depth. *)

(** {1 Checking constructor systems} *)

type violation = {
  v_constructor : string;  (** the definition containing the occurrence *)
  v_occurrence : string;  (** the recursive application at fault *)
  v_depth : int;
}

val pp_violation : violation Fmt.t

val dependencies : Defs.constructor_def -> string list
(** Constructors applied in a definition's body (with repetitions). *)

val tarjan :
  roots:string list -> succs:(string -> string list) -> string list list
(** Strongly connected components (Tarjan) of the graph [succs] reachable
    from [roots], visited in the given order.  Components are returned in
    emission order: each after every component reachable from it. *)

val sccs : Defs.constructor_def list -> Defs.constructor_def list list
(** Strongly connected components of the application-dependency graph
    (Tarjan), in dependency order. *)

val check_program :
  Defs.constructor_def list -> (unit, violation list) result
(** Per-SCC positivity for a whole program: non-recursive uses of other,
    independently computable constructors under NOT/ALL remain legal. *)

val check_aggregates : Defs.constructor_def list -> unit
(** Aggregate admission, per SCC: COUNT/SUM definitions may not sit in a
    recursive component (a partial count is not a count), while MIN/MAX
    definitions in a recursive component must satisfy the premappability
    condition — the aggregated target monotone non-decreasing in every
    recursive bound, group/discriminator targets independent of the
    bounds, and where-clause tests on a bound closed under improvement
    (downward for MIN, upward for MAX).
    @raise Dc_agg.Agg.Inadmissible describing the violating definition *)
