(** Physical query plans — the compiled form of application-free calculus
    queries (paper §4: compilation decoupled from execution).

    A plan is a union of branch pipelines; each pipeline binds its
    variables by scans or indexed lookups (keyed by equality conjuncts on
    previously bound variables), with residual filters attached to the
    earliest step at which they are closed. *)

open Dc_relation
open Dc_calculus
open Ast

exception Not_compilable of string
(** Raised on a bare relation name, on a selector/constructor application
    in range position (decompile first), or on a form that does not
    typecheck against the catalog. *)

type source =
  | Src_rel of string  (** named relation, resolved at run time *)
  | Src_comp of t  (** nested compiled comprehension *)

and access =
  | Full_scan
  | Index_lookup of (string * term) list  (** attr = closed term *)

and step = {
  s_var : var;
  s_source : source;
  s_access : access;
  s_filters : formula list;
  s_correlated : bool;
      (** source references earlier binders: evaluated per outer binding *)
}

and branch_plan = {
  bp_prefilters : formula list;
  bp_steps : step list;
  bp_target : term list;  (** [[]] = identity of the single step *)
}

and t = {
  p_branches : branch_plan list;
  p_schema : Schema.t;
}

val of_range : Typecheck.env -> Ast.range -> t
(** Compile a comprehension against the catalog: its binders take the
    evaluator's join schedule ({!Eval.schedule}, with no cardinalities)
    and its schema is the one the typechecker infers.  A relation name or
    an application is not compiled.  @raise Not_compilable *)

val run : ?use_indexes:bool -> Eval.env -> t -> Relation.t
(** Execute against the environment's relations.  [use_indexes:false]
    degrades indexed lookups to filtered scans (the E11 ablation measuring
    what hash-join scheduling buys). *)

val pp : t Fmt.t
(** Readable pipeline rendering (used by EXPLAIN). *)
