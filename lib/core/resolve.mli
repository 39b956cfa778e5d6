(** Resolution of a constructor application (paper §3.2): the single
    route by which [Base{c(args)}] gets evaluated, installed by
    {!Snapshot.eval_env} for published and working states alike.  The
    order is serve → aggregate → fixpoint. *)

open Dc_relation
open Dc_calculus

type serve =
  Defs.constructor_def -> Relation.t -> Eval.arg_value list -> Relation.t option
(** Answer an application from a maintained view extent, or decline with
    [None]. *)

val application :
  relation:(string -> Relation.t option) ->
  serve:serve ->
  strategy:Fixpoint.strategy ->
  ?on_stats:(Fixpoint.stats -> unit) ->
  Eval.env ->
  Relation.t ->
  Defs.constructor_def ->
  Eval.arg_value list ->
  Relation.t
(** An [Eval.on_construct] hook: [application env base def args].
    [serve] answers first.  Otherwise a system whose reachable
    constructors include an aggregate (MIN/MAX/COUNT/SUM head) is
    translated to Horn clauses and run by
    {!Dc_datalog.Seminaive.run} with per-group bounds, reading global
    relations through [relation]; every other system runs
    {!Fixpoint.apply} with [strategy] and the default round budget,
    and its statistics go to [on_stats] and its timed rounds
    ({!Fixpoint.round_log}) to the environment's trace.  Both evaluations
    run under the environment's guard.
    @raise Dc_guard.Guard.Exhausted when the guard trips
    @raise Dc_datalog.Translate.Unsupported for an aggregated system
    outside the Horn fragment *)
