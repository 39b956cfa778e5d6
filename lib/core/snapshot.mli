(** An immutable, published database state.

    A snapshot is what a reader session holds: persistent relation
    bindings, the catalog, the evaluation configuration and one frozen
    serve closure per Live maintained view.  Snapshots are safe to query
    concurrently
    from any number of threads while the writer publishes successors;
    {!Database.snapshot} returns the latest published one. *)

open Dc_relation
open Dc_calculus
module SM : Map.S with type key = string

type frozen_serve =
  Defs.constructor_def -> Relation.t -> Eval.arg_value list -> Relation.t option
(** Answer a constructor application from a frozen view extent, or
    decline with [None]. *)

type frozen_view = {
  fv_name : string;
  fv_application : Ast.range;  (** the application the view extends *)
  fv_stale : bool;
  fv_serve : frozen_serve option;  (** [None] iff the view was stale *)
}

type state = {
  catalog : int;
      (** catalog version: moves only with commits that change how a
          statement types or lowers — relation declarations and schemas,
          selectors, constructors, maintained views — never with
          INSERT, DELETE or assignment of a same-typed value *)
  rels : Relation.t SM.t;
  selectors : Defs.selector_def SM.t;
  constructors : Defs.constructor_def SM.t;
  strategy : Fixpoint.strategy;
  limits : Dc_guard.Guard.limits;
}
(** The database state proper: relation variables, the selectors and
    constructors defined over them, and the settings evaluation runs
    under.  The writer's working set is a value of this type, and
    publication wraps it unchanged. *)

type t = {
  version : int;  (** monotone: one publication per commit *)
  state : state;
  views : frozen_view list;
  durable : int option;
      (** LSN of the last durable WAL record / checkpoint covering this
          state; [None] without an attached write-ahead log *)
}

val version : t -> int

val catalog_version : t -> int
(** The [catalog] field: equal catalog versions of one database mean
    equal relation schemas, selectors, constructors and views. *)

val durable_lsn : t -> int option
(** Durability watermark at publication ([None] = no WAL attached). *)

val relation_count : t -> int
val relation_names : t -> string list
val get : t -> string -> Relation.t option
val view_names : t -> string list

val typecheck_env : t -> Typecheck.env

val eval_env :
  ?trace:Dc_exec.Ir.trace ->
  ?guard:Dc_guard.Guard.t ->
  ?serve:Resolve.serve ->
  ?on_stats:(Fixpoint.stats -> unit) ->
  t ->
  Eval.env
(** Evaluation environment resolving entirely inside the state:
    constructor applications go through {!Resolve.application} — served
    by [serve] (default: the frozen view extents) when it answers,
    otherwise evaluated (aggregate route or fixpoint) over the state's
    values, with a private per-evaluation index cache.  [trace] records
    every physical pipeline the evaluation lowers and runs (EXPLAIN);
    [guard] defaults to a fresh guard over the state's limits;
    [on_stats] receives each fixpoint's statistics.  The writer's
    {!Database.eval_env} is this over its working set, with its live
    maintainers as [serve]. *)

val check_query : t -> Ast.range -> unit

val query : ?guard:Dc_guard.Guard.t -> t -> Ast.range -> Relation.t
(** Typecheck and interpret against the frozen state: the direct
    evaluation, with no planning.  Served reads plan through
    [Dc_compile.Planner] (a higher layer); this is the direct oracle of
    the planned = direct differential.  Thread-safe: concurrent [query]
    calls on one snapshot share only immutable or frozen structure.
    @raise Dc_guard.Guard.Exhausted when a limit trips. *)

val pp_summary : t Fmt.t
(** One-line [version/relations/views/staleness] summary (SHOW
    SNAPSHOT). *)
