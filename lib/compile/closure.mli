(** The closure recogniser: proves that a constructor is "the closure of
    its exit branch by self-composition", so the planner may evaluate an
    application of it with the closure operator ({!Dc_exec.Reach})
    instead of the body's fixpoint (paper §4: the compile level chooses
    how an application is evaluated).

    A constructor [c] FOR [Rel] is a closure when
    - its result is binary, keyed on the whole tuple, with no aggregate;
    - exactly one branch is its exit, the formal base [EACH e IN Rel: TRUE];
    - every other branch composes two relations, each the base [Rel] or
      the self application [Rel{c(params)}] (at least one of them), as
      [<l.first, r.second> OF EACH l IN .., EACH r IN ..: l.second =
      r.first] with no other conjunct.

    Every such system's least fixpoint is the transitive closure of
    [Rel], whichever compositions it lists (base∘self, self∘base,
    self∘self): stepping and squaring compute the same set, and so does
    a traversal.  This is the one rewrite of Wang et al.'s FGH family
    whose proof is textbook. *)

open Dc_calculus

type verdict =
  | Closure
  | Declined of string  (** a near miss, and why *)
  | Not_candidate
      (** some branch joins more than two relations: not a composition,
          so no near miss worth a planning note *)

val recognise : Defs.constructor_def -> verdict
