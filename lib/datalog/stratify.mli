(** Stratification of Datalog programs with negation: assign each IDB
    predicate a stratum such that positive dependencies are non-decreasing
    and negative dependencies strictly increase.  Programs with a negative
    cycle — the Horn-side counterpart of the definitions the paper's
    positivity constraint rules out (§3.3) — are rejected. *)

module SM : Map.S with type key = string

exception Not_stratifiable of string

val strata :
  ?aggs:(string * Dc_agg.Agg.spec) list -> Syntax.program -> int SM.t
(** Stratum of each IDB predicate.  [aggs] maps aggregated IDB predicates
    to their aggregate spec: consumers of COUNT/SUM predicates (only exact
    at fixpoint) are bumped strictly above, as are non-MIN/MAX consumers
    of MIN/MAX predicates — while MIN/MAX heads may share a stratum with
    the MIN/MAX predicates they consume (premappable recursion, e.g.
    shortest paths).  Recursion through COUNT/SUM diverges and raises.
    @raise Not_stratifiable *)

val layers :
  ?aggs:(string * Dc_agg.Agg.spec) list -> Syntax.program ->
  Syntax.program list
(** Rules grouped by head stratum, lowest first (empty layers dropped). *)

val sccs : Syntax.program -> string list list
(** Strongly connected components of the positive dependency graph over
    IDB predicates, in topological (dependencies-first) order — the unit
    of work for incremental maintenance. *)

val recursive : Syntax.program -> string list -> bool
(** Does some rule with a head in the component also consult the
    component in a positive body atom?  (A singleton predicate without a
    self-loop is not recursive.) *)
