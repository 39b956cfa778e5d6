(** Incremental view maintenance for materialized constructor extents.

    [materialize] translates one constructor application [Base{c(args)}]
    to its Horn program (§3.4), computes the extent once, and registers a
    maintainer with the database so subsequent INSERT/DELETE on the base
    relations update the extent incrementally instead of refixpointing.
    An application whose system {!Dc_compile.Closure.recognise} proves
    regular, over labels that name relations, is maintained by
    re-traversal ({!Dc_exec.Reach}): an update traverses again from the
    sources that reach a changed edge and replaces their rows.  Other
    views are maintained over the translated program: non-recursive
    components by derivation counting, recursive components by
    delete-and-rederive (DRed) whose rederive step checks the same
    counts, both driven through the shared delta-variant compiler of
    {!Dc_datalog.Engine}.  Programs with stratified negation fall back to
    a per-update recompute; updates arriving while maintenance is off
    ([SET MAINTAIN OFF]) mark the view stale, and the next serve
    refreshes it.

    Maintenance runs under the database's resource governor; a failed
    propagation (guard exhaustion, injected fault) rolls the view and the
    triggering update back to the pre-update snapshot. *)

open Dc_relation
open Dc_calculus
open Dc_core

exception Error of string

type t

val materialize :
  Database.t -> constructor:string -> base:string -> args:Ast.arg list -> t
(** Translate, compute, and register.  @raise Error on unknown
    constructors, ill-typed applications, or applications outside the
    translatable Horn fragment. *)

val unregister : t -> unit

val name : t -> string
(** The instance predicate of the root application, e.g. ["tc__edge"] —
    also the maintainer name in the database registry. *)

val constructor : t -> string

val depends : t -> string list
(** Base (EDB) relations the view reads; updates to these are routed to
    the maintainer. *)

val plan_kind : t -> string
(** Human-readable maintenance plan, e.g. ["traversal (tc__Edge over
    Edge)"], ["incremental (sg__up:dred)"] or ["recompute (stratified
    negation)"]. *)

val is_stale : t -> bool

val value : t -> Relation.t
(** The maintained extent (refreshes first when stale). *)

val cardinal : t -> int

val refresh : t -> unit
(** From-scratch resynchronization (also rebuilds derivation counts, or a
    traversal's label graph). *)

(** {1 Checkpoint dump / restore}

    The durability layer ([Dc_wal]) checkpoints each materialized view's
    fact store and derivation counts alongside the base relations, so
    recovery re-registers maintainers without refixpointing; the WAL
    replay that follows drives the normal incremental path. *)

val views : Database.t -> t list
(** The views currently materialized over [db] (registration order),
    read from its maintainer list ({!Dc_core.Database.views}). *)

type dump = {
  dp_con : string;
  dp_base : string;
  dp_args : Ast.arg list;
  dp_stale : bool;
  dp_store : (string * Tuple.t list) list;  (** per predicate, sorted *)
  dp_supports : (string * (Tuple.t * int) list) list;
      (** derivation counts of the non-recursive components, sorted;
          the recursive ones are rebuilt at the first maintenance.  A
          traversal view dumps its extent alone and no counts. *)
}

val dump : t -> dump
(** Deterministic full capture of the view's maintained state. *)

val restore : Database.t -> dump -> t
(** Recompile the maintenance plan from the (already restored) catalog
    and adopt the dumped store/counts/staleness verbatim — no
    refixpoint.  The recursive components' counts, which the dump
    lacks, are rebuilt in one pass over the store by the first update,
    as after {!materialize}.  A traversal view adopts the dump's extent
    alone, so a checkpoint written while DRed maintained the view (with
    its base relations' copies and counts) restores too.  Registers the
    maintainer.  @raise Error if
    the dump's constructor is unknown or no longer translatable. *)

val support_counts : t -> (string * (Tuple.t * int) list) list
(** The derivation counts built so far, sorted; the recursive
    components' appear once an update has built them, see
    {!counts_built} (differential-test hook, reads only). *)

val counts_built : t -> bool
(** Whether the recursive components' counts are built: false after
    {!materialize}, a refresh and {!restore} of a view with a recursive
    component, true from its first incremental update on; always false
    for a traversal view, which keeps none (differential-test hook). *)

val program : t -> Dc_datalog.Syntax.program
(** The translated Horn program the view maintains, whose rule instances
    the derivation counts count (differential-test hook). *)

(** {1 Maintenance reports}

    Every update appends a report; [EXPLAIN ANALYZE] on an INSERT/DELETE
    resets the accumulator, performs the update, and prints what the
    maintenance pipeline did. *)

type phase = {
  ph_label : string;
  ph_tuples : int;
  ph_ms : float;
}

type report = {
  rp_view : string;
  rp_mode : string;
  rp_base : (string * int * int) list;
  mutable rp_phases : phase list;
  mutable rp_plus : int;
  mutable rp_minus : int;
  mutable rp_ms : float;
}

val reports : unit -> report list
(** Reports since the last [reset_reports], oldest first (bounded). *)

val reset_reports : unit -> unit
val pp_report : report Fmt.t
