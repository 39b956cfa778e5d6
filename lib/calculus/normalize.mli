(** Negation normal form and polarity analysis (the §3.3 lemma's proof
    transformation): quantifiers are replaced by their duals and negations
    pushed inward until NOT remains only on membership literals; on the
    result, monotonicity is syntactically visible. *)

val nnf : Ast.formula -> Ast.formula
(** Push negations to the atoms (deMorgan, double negation, dual
    quantifiers [NOT SOME = ALL NOT], [NOT ALL = SOME NOT]). *)

val is_nnf : Ast.formula -> bool
(** NOT occurs only directly on [In_rel]/[Member] literals. *)

type polarity =
  | Positive
  | Negative

type polar_occurrence = {
  po_target : Positivity.target;
  po_polarity : polarity;
}

val polarities_formula : Ast.formula -> polar_occurrence list
(** Polarity of every relation-name / application occurrence after
    normalization (nested WHERE clauses included): negated literals and
    ALL-range positions flip. *)


val monotone_in_formula : Ast.formula -> Positivity.target -> bool
(** All occurrences of the target are positive — syntactic monotonicity.
    Positivity (even counts) implies this; the property tests check the
    implication semantically. *)
