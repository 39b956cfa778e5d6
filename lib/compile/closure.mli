(** The closure recogniser: proves that a constructor is "the closure of
    its exit branch by self-composition", so the planner may evaluate it
    through whichever linear form the query's binding needs (paper §4:
    the compile level chooses how an application is evaluated).

    A constructor [c] FOR [Rel] is a closure when
    - its result is binary, keyed on the whole tuple, with no aggregate;
    - exactly one branch is its exit, the formal base [EACH e IN Rel: TRUE];
    - every other branch composes two relations, each the base [Rel] or
      the self application [Rel{c(params)}] (at least one of them), as
      [<l.first, r.second> OF EACH l IN .., EACH r IN ..: l.second =
      r.first] with no other conjunct.

    Every such system's least fixpoint is the transitive closure of
    [Rel], whichever compositions it lists (base∘self, self∘base,
    self∘self): stepping and squaring compute the same set.  This is the
    one rewrite of Wang et al.'s FGH family whose proof is textbook. *)

open Dc_calculus

(** How a composition branch recurses. *)
type shape =
  | Right  (** base ∘ self: [<e.a, p.b> OF EACH e IN Rel, EACH p IN Rel{c()}] *)
  | Left  (** self ∘ base *)
  | Nonlinear  (** self ∘ self *)

type t
(** A recognised closure. *)

type verdict =
  | Closure of t
  | Declined of string  (** a near miss, and why *)
  | Not_candidate
      (** some branch joins more than two relations: not a composition,
          so no near miss worth a planning note *)

val recognise : Defs.constructor_def -> verdict

val linear : t -> bool
(** Every composition branch is linear (no self ∘ self). *)

val orient : t -> shape -> Defs.constructor_def option
(** [orient c Left] (or [Right]) is the definition with its compositions
    replaced by one composition of that shape, under the same name;
    [None] when the body already is the exit and that one composition.
    @raise Invalid_argument on [Nonlinear] *)

val shape_name : shape -> string
