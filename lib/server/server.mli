(** Multi-session serving layer over one versioned {!Dc_core.Database}
    (single-writer / multi-reader snapshot isolation).

    Reads pin an immutable published {!Dc_core.Snapshot} — one per
    statement, or one held across an explicit [BEGIN ... COMMIT]
    read-only transaction — and evaluate on a pool worker domain
    ({!Dc_par.Par.run}), so concurrent sessions' reads run truly in
    parallel rather than interleaving on the main domain.  Writes
    serialize through one writer thread that runs the database's single
    commit point and publishes the next snapshot; when serving durably
    the writer drains its queue into group commits — one shared WAL
    fsync per batch, each session released only after that fsync.
    Sessions are bounded (admission control) and each evaluates under
    its own {!Dc_guard.Guard.limits}.

    Served [QUERY] statements ({!query_string}) go through a bounded,
    server-wide statement cache keyed by (catalog version, statement
    shape): a statement whose shape was compiled before at its
    snapshot's catalog version binds its literals into the cached form
    and skips parse, lowering and typecheck.

    Instruments (when metrics are on): [dc_server_sessions],
    [dc_server_queue_depth], [dc_server_commits_total],
    [dc_server_statements_total{kind}], [dc_server_statement_ms{kind}],
    [dc_server_stmt_cache_total{result="hit"|"miss"|"evict"}]. *)

open Dc_core

exception Error of string

type t
(** A running server: one database, one writer thread, many sessions. *)

val create :
  ?max_sessions:int ->
  ?limits:Dc_guard.Guard.limits ->
  ?wal:Dc_wal.Durable.t ->
  Database.t ->
  t
(** Start a server (and its writer thread) over [db].  [max_sessions]
    (default 64) bounds concurrently open sessions; [limits] is the
    default per-session guard budget.  [wal] (which must be attached to
    the same [db]) is closed — final checkpoint included — by
    {!shutdown}. *)

val open_durable :
  ?max_sessions:int ->
  ?limits:Dc_guard.Guard.limits ->
  ?checkpoint_every:int ->
  string ->
  t
(** Recover the data directory (creating it when new) and serve the
    recovered database; {!shutdown} drains, checkpoints, and closes it.
    [checkpoint_every] schedules a periodic checkpoint every that many
    logged records and on nothing else (default:
    {!Dc_wal.Durable.default_policy}). *)

val db : t -> Database.t

val durable : t -> Dc_wal.Durable.t option
val session_count : t -> int

val submit : t -> (unit -> 'a) -> 'a
(** Serialize a closure through the writer thread and wait for its
    result (exceptions re-raised in the caller).  Runs inline when
    called from the writer thread itself. *)

val shutdown : t -> unit
(** Stop accepting work, drain the queue, join the writer thread, and —
    when serving durably — take a final checkpoint and close the WAL. *)

(** {1 Sessions} *)

type session

val open_session : ?limits:Dc_guard.Guard.limits -> t -> session
(** @raise Error when the server is shut down or at [max_sessions]. *)

val close_session : session -> unit
val session_id : session -> int

val execute : session -> string -> string
(** Parse and execute DBPL statements, returning their printed output.
    Read statements run on the calling thread against a snapshot (the
    pinned one inside [BEGIN ... COMMIT], else the latest published
    version per statement); write statements block until the writer has
    committed and published them. *)

val execute_decl : session -> Dc_lang.Surface.decl -> string
(** Execute one parsed statement (see {!execute}). *)


val query : session -> Dc_calculus.Ast.range -> Dc_relation.Relation.t * int
(** Library-level read: plan a calculus range against the session's
    current snapshot (pinned or latest) and run the decision over it
    under the session's guard limits, returning the result and the
    snapshot version it observed.  Never touches the writer; evaluates
    on a pool worker domain. *)

val query_string : session -> string -> Dc_relation.Relation.t * int
(** Evaluate a single [QUERY ...;] statement as {!query} — the wire
    protocol's row-returning read path — against the session's snapshot
    (pinned or latest), whose catalog also resolves the statement's
    names.  A statement whose shape ({!Dc_lang.Shape}) is cached at the
    snapshot's catalog version runs the cached form with its own lifted
    literals bound; any other statement is parsed, lowered and
    typechecked, its lifted form planned ({!Dc_compile.Planner.prepare})
    and cached, and the form run once with the statement's literals.
    Both routes run the same decision, so they return the same rows and
    columns and raise the same errors.
    @raise Error when [src] is not exactly one QUERY statement. *)
