(** The database programming environment: named relation variables plus
    registries of selector and constructor definitions, with DBPL's checks
    wired in — key constraints on assignment (§2.2), selector-guarded
    assignment (§2.3), static typing and positivity at definition time
    (§3.3, §4), fixpoint semantics at query time (§3.2). *)

open Dc_relation
open Dc_calculus

exception Error of string

type t

val create :
  ?strategy:Fixpoint.strategy ->
  ?check_positivity:bool ->
  ?limits:Dc_guard.Guard.limits ->
  unit ->
  t
(** Fresh database. Defaults: [Seminaive], positivity checked, no
    resource limits. *)

val set_limits : t -> Dc_guard.Guard.limits -> unit
(** Declarative resource limits (the surface language's [SET LIMIT]):
    every subsequent evaluation runs under a fresh guard over these. *)

val limits : t -> Dc_guard.Guard.limits

val last_stats : t -> Fixpoint.stats option
(** Statistics of the most recent top-level constructor application. *)

val reset_last_stats : t -> unit
(** Forget the last fixpoint statistics, so a subsequent read reflects
    only the next evaluation (EXPLAIN ANALYZE uses this to avoid showing
    a previous query's rounds for a non-recursive query). *)

(** {1 Relation variables} *)

val declare : t -> string -> Schema.t -> unit
(** @raise Error if the name is taken. *)

val get : t -> string -> Relation.t
(** @raise Error if unknown. *)

val set : t -> string -> Relation.t -> unit
(** Bind or update; updating requires a compatible schema. *)

val relation_names : t -> string list

val update_batch : t -> (string * Tuple.t list * Tuple.t list) list -> unit
(** [update_batch db [(rel, adds, removes); ...]] applies a
    multi-relation batch of point updates as {e one} commit: removals
    then additions per relation, net deltas propagated to every
    maintainer reading a touched relation in a single call each (or
    marking it stale when maintenance is off), exactly one published
    version covering the whole batch, and full rollback (bindings and
    views) if anything fails mid-batch.  The one point-update path: an
    INSERT or DELETE statement and a serving writer thread's batch alike.
    @raise Relation.Key_violation / Relation.Type_mismatch per §2.2. *)

val insert : t -> string -> Tuple.t -> unit
val insert_all : t -> string -> Tuple.t list -> unit
val delete : t -> string -> Tuple.t -> unit
(** One-relation [update_batch] calls. *)

(** {1 Snapshots}

    The database is a versioned store.  The writer's working state is
    one {!Snapshot.state} value; every committed mutation publishes it,
    wrapped with a monotone version, the frozen views and the durable
    LSN, as an immutable {!Snapshot.t}.
    Reader threads grab {!snapshot} (a single field read of an immutable
    record — no locking) and evaluate against it while the writer moves
    on. *)

val snapshot : t -> Snapshot.t
(** The latest published state. *)

val version : t -> int
(** Version of the latest published snapshot (0 = freshly created). *)

(** {1 Durability}

    The write-ahead-log subsystem ([Dc_wal], a higher layer) plugs into
    the commit point through closures, exactly like maintainers do. *)

type wal_hooks = {
  wh_append :
    version:int ->
    catalog:bool ->
    changes:(string * Tuple.t list * Tuple.t list) list ->
    unit;
      (** called inside the commit, after mutation and maintenance
          succeeded but {e before} the snapshot publishes: make the
          commit durable ([changes] is the net point-update delta in
          application order; [catalog] marks commits with no replayable
          delta — DDL, wholesale assignment, view (un)registration —
          which need a checkpoint instead).  Raising aborts the commit:
          full rollback, nothing published. *)
  wh_published : version:int -> unit;
      (** called after publication (periodic checkpointing); an
          exception propagates to the committer but the commit stands *)
}

val set_wal_hooks : t -> wal_hooks option -> unit

val durable_lsn : t -> int
(** LSN of the last durable record/checkpoint (0 = none / no WAL). *)

val set_durable_lsn : t -> int -> unit
(** Advance the durability watermark (also refreshed into the published
    snapshot, without a version bump). Called by the WAL layer. *)

val restore_version : t -> int -> unit
(** Recovery only: force the published version counter so a replayed
    commit republishes at exactly the logged version.  Never call this
    on a live (serving) database. *)

(** {1 Maintained views}

    The incremental-maintenance subsystem ([Dc_ivm], a higher layer)
    plugs in through closures: it registers a maintainer per materialized
    constructor extent, and the database routes updates and constructor
    applications through the registry. *)

type view_txn = {
  vt_commit : unit -> unit;  (** keep the step; drop its undo state *)
  vt_rollback : unit -> unit;  (** restore the state before the step *)
}

type view = ..
(** What a maintainer maintains: the maintenance subsystem extends this
    with its view type, and {!views} hands its views back. *)

type maintainer = {
  mt_name : string;
  mt_view : view;
  mt_application : Dc_calculus.Ast.range;
      (** the application [Base{c(args)}] whose extent the view keeps *)
  mt_depends : string list;  (** base relations the view reads *)
  mt_serve : Resolve.serve;
      (** serve a constructor application from the maintained extent, or
          decline with [None] *)
  mt_update : (string * Tuple.t list * Tuple.t list) list -> unit;
      (** apply one batch of net base deltas: (relation, added, removed) *)
  mt_invalidate : unit -> unit;  (** mark stale; refresh on next serve *)
  mt_begin : unit -> view_txn;
      (** open a maintenance transaction around one commit *)
  mt_stale : unit -> bool;  (** is the view currently stale? *)
  mt_freeze : unit -> Snapshot.frozen_serve option;
      (** publish-time capture: a thread-safe serve closure over a
          frozen copy of the extent, or [None] when the view is stale *)
}

val register_maintainer : t -> maintainer -> unit
(** Latest registration for a name wins (re-MATERIALIZE replaces). *)

val unregister_maintainer : t -> string -> unit

val views : t -> view list
(** The registered maintainers' views, in registration order: the one
    registry, journaled by the commit like the rest of the state, so a
    failed (un)registration leaves it as it was. *)

val set_maintain : t -> bool -> unit
(** [SET MAINTAIN ON|OFF]: when off, updates invalidate maintained views
    instead of propagating deltas into them. Default on. *)

(** {1 Definitions} *)

val define_selector : t -> Defs.selector_def -> unit
(** Typechecks the body. @raise Error on failure. *)

val define_constructors : t -> Defs.constructor_def list -> unit
(** Register a (possibly mutually recursive) group atomically: all
    signatures become visible, every body is typechecked, then the §3.3
    positivity check runs per dependency SCC.  On failure nothing is
    registered. @raise Error *)

val define_constructor : t -> Defs.constructor_def -> unit

val selector : t -> string -> Defs.selector_def option
val constructor : t -> string -> Defs.constructor_def option

val selector_names : t -> string list
val constructor_names : t -> string list

(** {1 Environments} *)

val typecheck_env : t -> Typecheck.env
(** {!Snapshot.typecheck_env} over the working state. *)

val eval_env : ?trace:Dc_exec.Ir.trace -> ?guard:Dc_guard.Guard.t -> t -> Eval.env
(** {!Snapshot.eval_env} over the working state: the live maintainers
    serve first, and fixpoint statistics go to {!last_stats}.  [trace]
    records every physical pipeline the evaluation lowers and runs
    (EXPLAIN).  [guard] defaults to a fresh guard over {!limits} and
    governs every route, the aggregate one included. *)

(** {1 Queries and assignment} *)

val check_query : t -> Ast.range -> unit

val query :
  ?trace:Dc_exec.Ir.trace -> ?guard:Dc_guard.Guard.t -> t -> Ast.range -> Relation.t
(** Typecheck, then interpret (constructor applications run to their
    least fixpoint) under [guard] (default: a fresh guard over {!limits}):
    the direct evaluation, with no planning.  A QUERY statement plans
    through [Dc_compile.Planner] (a higher layer) over {!typecheck_env}
    and {!eval_env}; this is the direct oracle of the planned = direct
    differential.
    @raise Dc_guard.Guard.Exhausted when a limit trips; aborted
    constructor expansions leave the database and caches unchanged. *)

val eval_formula : t -> Ast.formula -> bool
(** Closed formulas only. *)

val coerce : Schema.t -> Relation.t -> Relation.t
(** Re-impose a target schema on a computed relation, re-running the key
    check — the §2.2 relational type checker. @raise Error on
    incompatibility. *)

val assign : t -> string -> Ast.range -> unit
(** [Rel := range], with the §2.2 checks. *)

val assign_selected :
  t -> string -> selector:string -> args:Ast.arg list -> Ast.range -> unit
(** [Rel[s(args)] := range] — the §2.3 guarded assignment.
    @raise Selector.Selector_violation if any tuple fails the predicate. *)
