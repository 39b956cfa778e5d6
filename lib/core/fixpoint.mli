(** Least-fixpoint semantics of constructor application (paper §3.2).

    An application [Actrel{c(args)}] induces a system of equations over all
    reachable (possibly mutually recursive) constructor applications,
    iterated Jacobi style from empty relations:

    {v apply_i^0 = {},   apply_i^(k+1) = g_i (apply_1^k, ..., apply_l^k) v}

    For positive (hence monotone) systems over finite domains the limit
    exists and is reached after finitely many steps [Tars 55]. *)

open Dc_relation
open Dc_calculus

exception Divergence of string
(** Raised when a (positivity-unchecked) system oscillates with period two
    — the behaviour of the paper's "nonsense" example — or exceeds the
    round budget. *)

(** Evaluation strategy. *)
type strategy =
  | Naive  (** re-evaluate every application body from scratch each round *)
  | Seminaive
      (** differential: per round, evaluate one variant per branch and
          recursive binder occurrence with that occurrence bound to the
          previous round's delta.  Applies to definitions whose recursive
          occurrences are all top-level binder ranges with construct-free
          bases/arguments (every example in the paper); other definitions
          silently fall back to naive re-evaluation. *)

type stats = {
  mutable rounds : int;  (** fixpoint iterations until convergence *)
  mutable applications : int;  (** size [l] of the application system *)
  mutable body_evaluations : int;  (** branch-evaluation passes *)
  mutable tuples_produced : int;  (** sum of delta sizes over all rounds *)
  mutable tuples_derived : int;
      (** tuples computed including rediscoveries — the naive engine's
          waste measure *)
  mutable round_deltas : int list;
      (** new tuples per round across all applications, latest round
          first — the convergence series of experiment E1 *)
  mutable round_times : float list;
      (** wall milliseconds per round, latest round first; only populated
          when metrics are enabled ({!Dc_obs.Obs.on}) — EXPLAIN ANALYZE
          zips this with [round_deltas] *)
}

val fresh_stats : unit -> stats
val pp_stats : stats Fmt.t

val round_log : stats -> (int * float) list
(** The timed rounds, first round first: (new tuples, wall ms).  Empty
    unless metrics were enabled while the fixpoint ran. *)

val default_max_rounds : int

val apply :
  ?strategy:strategy ->
  ?max_rounds:int ->
  ?stats:stats ->
  Eval.env ->
  Defs.constructor_def ->
  Relation.t ->
  Eval.arg_value list ->
  Relation.t
(** [apply env def base args] computes the value of [base{def(args)}] by
    running the whole application system to its least fixpoint.  [env]
    supplies global relations plus selector/constructor lookups through its
    hooks; nested applications discovered during evaluation join the
    system.  Defaults: [Seminaive], {!default_max_rounds}.  Callers go
    through {!Resolve.application}, which sends aggregated systems to the
    Horn-clause engine instead.

    The environment's guard governs the expansion: every round ticks its
    round budget and every pipeline row its row budget/deadline.  The
    expansion is {e atomic}: when the guard trips — or any other
    exception aborts the fixpoint — the shared index cache is rolled back
    to its pre-call state before the exception propagates, and no
    database state has been touched.
    @raise Dc_guard.Guard.Exhausted when the guard trips.

    With {!Dc_par.Par.domains} > 1, each semi-naive variant's delta is
    hash-partitioned across that many domains; shards evaluate against
    the frozen previous-round full values and merge at the round
    barrier.  Deltas under {!Dc_par.Par.seq_cutoff} stay sequential, as
    do traced (EXPLAIN) evaluations.
    @raise Divergence on oscillation or budget exhaustion. *)
