(** The regular-system recogniser: proves that the application system a
    constructor's application reaches denotes a regular language over
    base relations, so the planner may evaluate the application with the
    product traversal ({!Dc_exec.Reach}) instead of the system's fixpoint
    (paper §4: the compile level chooses how an application is
    evaluated).

    The system is unfolded from the root's application [Rel{c(params)}]:
    every application a body makes is rewritten in the root's terms, the
    callee's formal and range parameters replaced by the ranges the
    caller passes, so [Rel{ahead(Ontop)}] reaches [Ontop{above(Rel)}],
    whose body reaches [Rel{ahead(Ontop)}] again.  Each distinct
    application is a state; the applications of a constructor whose body
    never reads its formal denote one relation whatever their base, and
    are one state (the constructors [Translate.to_constructors] makes of
    Horn rules apply each other to empty placeholder bases).  The system is regular when
    - every state's constructor is binary, keyed on the whole tuple, with
      no aggregate;
    - every application a body makes passes names through: its base a
      relation name, each argument a name or a scalar;
    - every branch is an exit [EACH v IN base: TRUE] over a base range
      (no application, no comprehension), or a chain composition
      [<l.first, r.second> OF EACH l IN .., EACH r IN ..: l.second =
      r.first] with no other conjunct;
    - the compositions are all [base ∘ app] (right-linear) or all
      [app ∘ base] (left-linear).

    Its automaton's labels are the base ranges, in the root's terms.
    Squaring [app ∘ app], and any mix of sides, is accepted only in a
    one-state system over one relation: that system is the closure of
    its exit, {!Dc_exec.Reach.closure}.  This is one rewrite of Wang et
    al.'s FGH family (linear chain programs are regular path queries)
    whose proof is textbook. *)

open Dc_calculus

type system = {
  automaton : Dc_exec.Reach.automaton;
  labels : Ast.range array;
      (** each label's range, over the root's formal, its parameters and
          global relations: evaluated where the root's body would be *)
}

type verdict = Regular of system | Declined of string  (** a near miss, and why *)

val recognise : Typecheck.env -> Defs.constructor_def -> verdict
