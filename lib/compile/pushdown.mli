(** Constraint propagation into constructor definitions (paper §4,
    Cases 1–3), including the recursive case via capture rules (magic sets
    over the §3.4 translation). *)

open Dc_relation
open Dc_calculus
open Ast

exception Not_applicable of string

val restricted_application : range -> (var * range * formula) option
(** Recognize [{EACH r IN Base{c(args)}: pred}] (or a bare application);
    returns (variable, application, restriction). *)

val constant_bindings : var -> formula -> (string * term) list * formula list
(** Split the top-level conjuncts into [v.attr = c] bindings, [c] a
    [Const] or a prepared form's [Param], and the residual conjuncts (a
    second binding of one attribute among them). *)

val push_nonrecursive :
  names:Rewrite.names ->
  constructor_of:(string -> Defs.constructor_def option) ->
  schema_of_range:(range -> Schema.t) ->
  var ->
  range ->
  formula ->
  range
(** Decompile a non-recursive application and push the restriction
    (Cases 1–3). @raise Not_applicable *)

val magic_query :
  ctx:Dc_datalog.Translate.context ->
  schema:Schema.t ->
  range ->
  (string * term) list ->
  Dc_datalog.Syntax.program * Dc_datalog.Syntax.atom * Dc_datalog.Magic.compiled
(** The recursive capture rule: translate the application to Horn clauses
    and compile them for the bindings' pattern.  The query atom has the
    constants, a variable named after each parameter (its value seeds the
    program at run time, {!Dc_datalog.Magic.run}) and [Q<i>] for the free
    positions.
    @raise Dc_datalog.Translate.Unsupported outside the Horn fragment
    @raise Dc_datalog.Magic.Unsupported outside the magic-sets fragment
    (negation, computed terms) *)

val run_magic :
  guard:Dc_guard.Guard.t ->
  stats:Dc_datalog.Seminaive.stats ->
  ?trace:Dc_exec.Ir.trace ->
  edb:Dc_datalog.Facts.t ->
  schema:Schema.t ->
  Dc_datalog.Magic.compiled ->
  Dc_datalog.Syntax.atom ->
  Relation.t
(** Seed the compiled program with the query atom's constants, evaluate
    it, and convert the answers back to a relation. *)
