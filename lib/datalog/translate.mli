(** Translations between constructor systems and Horn-clause programs —
    the §3.4 lemma ("the constructor mechanism is as powerful as
    function-free PROLOG without cut, fail, and negation") in both
    directions. *)

open Dc_relation
open Dc_calculus

exception Unsupported of string
(** Raised on constructs outside the Horn fragment (negation, universal
    quantification, computed targets, non-name arguments, ...). *)

(** Resolution context for the constructor → Horn direction. *)
type context = {
  lookup_constructor : string -> Defs.constructor_def option;
  schema_of : string -> Schema.t option;  (** global (EDB) relations *)
}

val context : Typecheck.env -> context
(** The context that resolves constructors and relations in a catalog. *)

val edb : (string -> Relation.t option) -> Syntax.program -> Facts.t
(** The EDB of a translated program: each of its extensional predicates
    that the lookup resolves, loaded from that relation. *)

(** A constructor instance closed over actual names/values. *)
type instance = {
  inst_con : string;
  inst_base : string;
  inst_args : inst_arg list;
}

and inst_arg =
  | IA_rel of string
  | IA_scalar of Value.t

val instance_pred : instance -> string
(** Predicate name of an instance, e.g. ["ahead__Infront__Ontop"]. *)

val of_application_full :
  context ->
  Ast.range ->
  Syntax.program * string * (string * Dc_agg.Agg.spec) list
(** Translate an application [Base{c(args)}] over named relations: one IDB
    predicate per reachable instance, one rule per branch.  Returns the
    program, the query predicate, and the aggregate spec of every
    aggregated instance — feed the latter to [Seminaive.run ?aggs].
    Aggregated branch targets may carry computed ([Binop]) head terms.
    @raise Unsupported *)

val of_application : context -> Ast.range -> Syntax.program * string
(** Aggregate-free variant of {!of_application_full} for the engines that
    cannot evaluate aggregates; an aggregated system raises [Unsupported]
    instead of being silently evaluated as plain Horn clauses.
    @raise Unsupported *)

val to_constructors :
  (string -> Schema.t) ->
  Syntax.program ->
  Defs.constructor_def list * (string * Schema.t) list
(** [to_constructors schema_of program] builds one constructor per IDB
    predicate, each grown from an empty base relation named
    ["__bottom_<pred>"] (cf. the paper's end-of-§3.1 remark).  Returns the
    definitions and the bottom relations the caller must declare (empty).
    @raise Unsupported on negation or ground fact rules. *)
