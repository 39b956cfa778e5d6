(** Elaboration: resolve surface type names, lower the surface syntax onto
    the calculus AST, and execute declarations against a
    [Dc_core.Database] (the front half of the DBPL compiler). *)

open Dc_core
open Surface

exception Elab_error of string

type env
(** Elaboration state: the database plus type-alias tables and the
    accumulated QUERY/PRINT/EXPLAIN output. *)

val create : Database.t -> env

val pinned : env -> Snapshot.t option
(** The snapshot pinned by an open [BEGIN ... COMMIT] read-only
    transaction, if any: while pinned, every QUERY/PRINT observes that
    one published version and mutating statements are rejected. *)

val read_only : decl -> bool
(** Statements that never mutate the shared database — allowed inside a
    read-only transaction, and servable from a snapshot without going
    through a serializing writer. *)

val lower_constructor : env -> constructor_decl -> Dc_calculus.Defs.constructor_def
(** Lower one constructor declaration (types resolved, body lowered). *)

val execute_decl : env -> decl -> unit
(** Execute one declaration/statement.  Note: [D_constructor] is defined
    individually here; use {!run} for programs with mutual recursion. *)

val with_snapshot : env -> Snapshot.t -> (unit -> 'a) -> 'a
(** Pin [snap] for the duration of the callback unless an explicit
    [BEGIN] already pinned one (the open transaction wins) — the
    per-statement snapshot isolation used by server sessions. *)

val begin_transaction : env -> Snapshot.t -> unit
(** [BEGIN] pinning [snap]: a server session pins its own statement
    snapshot, which carries the session's limits, where the plain
    statement pins the database's latest one.
    @raise Elab_error when a transaction is already open *)

val drain_output : env -> string
(** Return and clear the accumulated QUERY/PRINT/EXPLAIN output, so a
    session executing statement by statement (via {!execute_decl}) gets
    each statement's own text. *)

val run : env -> program -> string
(** Execute a whole program; consecutive CONSTRUCTOR declarations are
    defined as one group (so mutually recursive constructors typecheck —
    write them adjacently, as the paper's listings do).  Returns this
    run's QUERY/PRINT/EXPLAIN output (the buffer is drained, so repeated
    [run]s on one env each return only their own output). *)

val lower_query :
  ?params:string list -> env -> Surface.range -> Dc_calculus.Ast.range
(** Lower a standalone query range.  [params] (default none) are scalar
    parameter names in scope: a bare name among them lowers to
    [Ast.Param].  Global relation names resolve in the pinned snapshot
    when one is pinned ({!with_snapshot}), else in the live database. *)

val run_string : ?db:Database.t -> string -> Database.t * string
(** Parse and run source text against a fresh (or given) database. *)
