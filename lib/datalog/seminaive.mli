(** Semi-naive bottom-up evaluation with stratified negation: per round,
    one variant per rule and same-stratum IDB occurrence, that occurrence
    reading the previous round's delta.  New facts are applied at round
    end, keeping the stores (and their indexes) immutable within a round. *)

type stats = {
  mutable rounds : int;
  mutable derivations : int;
  mutable round_log : (int * float) list;
      (** (new tuples, wall ms) per round, latest first; only populated
          when metrics are enabled ({!Dc_obs.Obs.on}) or the run is
          traced *)
}

val fresh_stats : unit -> stats

val run :
  ?guard:Dc_guard.Guard.t ->
  ?stats:stats ->
  ?trace:Dc_exec.Ir.trace ->
  ?aggs:(string * Dc_agg.Agg.spec) list ->
  Syntax.program ->
  Facts.t ->
  Facts.t
(** [guard] bounds the evaluation (rounds tick its round budget, emitted
    rows its row budget/deadline).  [trace] records each stratum's
    round-1 and delta pipelines with whole-fixpoint operator counters
    (EXPLAIN).  Every round runs on the calling domain, whatever the
    parallel degree: sharded rounds measured no faster than one domain.
    [aggs] maps aggregated IDB predicates to their
    aggregate: rule emissions for such a predicate pass through a
    per-stratum group table keeping one accumulator per group
    (semi-naive with per-group bounds — a recursive MIN subsumes rather
    than accumulates); displaced results are withdrawn from the store at
    round end.
    @raise Syntax.Unsafe_rule / Stratify.Not_stratifiable
    @raise Dc_guard.Guard.Exhausted when the guard trips *)

val query :
  ?guard:Dc_guard.Guard.t ->
  ?stats:stats ->
  ?trace:Dc_exec.Ir.trace ->
  ?aggs:(string * Dc_agg.Agg.spec) list ->
  Syntax.program ->
  Facts.t ->
  string ->
  Facts.TS.t
