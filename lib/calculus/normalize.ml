(* Negation normal form and polarity analysis.

   Implements the transformation from the proof sketch of the §3.3 lemma:
   replace range-coupled quantifiers by their duals and push negations
   inward with generalized deMorgan and double-negation laws, so that NOT
   remains only on atomic membership literals.  On the resulting form,
   monotonicity is syntactically visible: an expression is monotone in a
   relation name iff every occurrence of the name has positive polarity
   (ALL-range positions and negated literals flip polarity). *)

open Ast

(* NNF: push NOT down to atoms, using the dual-quantifier laws
     NOT (SOME r IN R (p))  =  ALL r IN R (NOT p)
     NOT (ALL r IN R (p))   =  SOME r IN R (NOT p)
   (ranges are untouched — they keep their polarity role). *)
let rec nnf = function
  | (True | False | Cmp _ | In_rel _ | Member _) as f -> f
  | Not f -> nnf_neg f
  | And (a, b) -> conj (nnf a) (nnf b)
  | Or (a, b) -> disj (nnf a) (nnf b)
  | Some_in (v, r, f) -> Some_in (v, r, nnf f)
  | All_in (v, r, f) -> All_in (v, r, nnf f)

and nnf_neg = function
  | True -> False
  | False -> True
  | Cmp (op, a, b) -> Cmp (negate_cmpop op, a, b)
  | Not f -> nnf f
  | And (a, b) -> disj (nnf_neg a) (nnf_neg b)
  | Or (a, b) -> conj (nnf_neg a) (nnf_neg b)
  | Some_in (v, r, f) -> All_in (v, r, nnf_neg f)
  | All_in (v, r, f) -> Some_in (v, r, nnf_neg f)
  | (In_rel _ | Member _) as atom -> Not atom

let rec is_nnf = function
  | True | False | Cmp _ | In_rel _ | Member _ -> true
  | Not (In_rel _ | Member _) -> true
  | Not _ -> false
  | And (a, b) | Or (a, b) -> is_nnf a && is_nnf b
  | Some_in (_, _, f) | All_in (_, _, f) -> is_nnf f

(* ------------------------------------------------------------------ *)
(* Polarity of relation-name occurrences. *)

type polarity =
  | Positive
  | Negative

type polar_occurrence = {
  po_target : Positivity.target;
  po_polarity : polarity;
}

(* Deep NNF: every WHERE clause of a nested comprehension too. *)
let nnf_deep f =
  nnf
    (Morph.map_formula
       {
         Morph.id with
         range =
           (fun () -> function
             | Comp bs -> Comp (List.map (fun b -> { b with where = nnf b.where }) bs)
             | r -> r);
       }
       () f)

(* On the deep NNF, NOT sits only on literals, so the parity of an
   occurrence's NOT/ALL-range depth is its polarity. *)
let polarities_formula f =
  List.map
    (fun (o : Positivity.occurrence) ->
      {
        po_target = o.occ_target;
        po_polarity = (if o.occ_depth mod 2 = 0 then Positive else Negative);
      })
    (Positivity.occurrences_formula (nnf_deep f))

(* Syntactic monotonicity: every occurrence of the target is positive after
   normalization.  By the §3.3 lemma this follows from positivity, and the
   test suite checks that implication on generated formulas. *)
let monotone_in_formula f target =
  List.for_all
    (fun o -> o.po_target <> target || o.po_polarity = Positive)
    (polarities_formula f)
