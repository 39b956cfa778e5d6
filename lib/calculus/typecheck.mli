(** Static type checking of calculus expressions against relation schemas —
    the DBPL compiler's type-checking level (paper §4).

    The checker infers a schema for every range expression (nested
    comprehensions included; selector applications are type-preserving,
    constructor applications take their declared result type) and validates
    terms, comparisons, quantifiers, memberships, and argument lists. *)

open Dc_relation

exception Error of string

(** Checking environment: name resolution for relations, selectors,
    constructors, and scalar parameters in scope. *)
type env = {
  schema_of_rel : string -> Schema.t option;
  selector_of : string -> Defs.selector_def option;
  constructor_of : string -> Defs.constructor_def option;
  scalar_params : (string * Value.ty) list;
  views : Ast.range list;
      (** the applications [Base{c(args)}] that registered maintained
          views answer: the planner leaves them to their views *)
}

val env :
  ?selectors:Defs.selector_def list ->
  ?constructors:Defs.constructor_def list ->
  ?scalar_params:(string * Value.ty) list ->
  ?views:Ast.range list ->
  (string * Schema.t) list ->
  env
(** Build an environment from association lists. *)

val with_scalar_params : env -> (string * Value.ty) list -> env

type ctx = (Ast.var * Schema.t) list
(** Tuple-variable context: variable → schema of its range. *)

val check_formula : env -> ctx -> Ast.formula -> unit

val infer_range : env -> ctx -> Ast.range -> Schema.t
(** Schema of a range expression.
    @raise Error on unknown names or arity/type mismatches. *)

val target_schema : (Ast.term -> Value.ty) -> Ast.term list -> Schema.t
(** The schema a branch's target terms build, given each term's type: a
    [Field] term keeps its attribute name, any other term is named
    [c<i>] by its position, and a name already taken becomes
    [<name>_<i>].  The evaluator names its results by this rule too. *)

val aggregated_schema :
  who:string -> Dc_agg.Agg.spec -> Schema.t -> Schema.t
(** Result schema of an aggregated constructor given its branches' raw
    schema: group attributes (in spec order) followed by the accumulated
    value ({!Dc_agg.Agg.result_ty}); remaining raw attributes are
    discriminators and vanish.
    @raise Error on out-of-range positions or an inadmissible value type *)

val check_selector_def : env -> Defs.selector_def -> unit

val body_env : env -> Defs.constructor_def -> env
(** [env] with a constructor's formal and parameters in scope, as its
    body sees them. *)

val check_constructor_def : env -> Defs.constructor_def -> unit
(** For an aggregated constructor ([con_agg]), the branches' inferred raw
    schema is grouped/folded through {!aggregated_schema} before the
    [con_result] comparison. *)

val check_query : env -> Ast.range -> unit
