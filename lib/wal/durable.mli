(** Durability for the versioned store: a data directory holding a
    checkpoint image plus a write-ahead log, wired into
    {!Dc_core.Database}'s commit hooks.

    Every data commit appends one CRC-framed, fsynced WAL record before
    its snapshot publishes; catalog-shaped commits (DDL, wholesale
    assignment, view (un)registration) write a full checkpoint instead;
    periodic checkpoints bound the replay suffix.  A checkpoint captures
    the catalog (as DBPL source), paged relation extents, and every
    materialized view's fact store and derivation counts.

    Recovery ([open_dir] on a non-empty directory) applies the
    checkpoint, truncates any torn WAL tail, and replays the remaining
    records through [Database.update_batch] — the ordinary commit path,
    driving incremental view maintenance — arriving at exactly the last
    durable version. *)

open Dc_core

exception Recovery_error of string

type checkpoint_policy = {
  cp_records : int option;  (** checkpoint after this many logged records *)
  cp_bytes : int option;  (** … or once the WAL holds this many bytes *)
  cp_seconds : float option;
      (** … or this long after the previous checkpoint, measured at the
          next commit (no timer thread — an idle database never
          checkpoints spontaneously) *)
}
(** When to take a periodic checkpoint; the first criterion to trip
    wins, [None] disables one.  Record counts mis-size replay cost when
    commit widths vary (one record can carry a million-tuple assignment
    delta), so [cp_bytes] bounds the actual suffix a recovery must read
    and [cp_seconds] bounds staleness on slow-trickle streams.  All
    three [None] turns periodic checkpoints off entirely — catalog
    commits and {!close} still write them. *)

val default_policy : checkpoint_policy
(** 1024 records or 4 MiB of WAL, whichever comes first; no time bound. *)

type t

val open_dir : ?db:Database.t -> ?policy:checkpoint_policy -> string -> t
(** Open (creating if needed) a data directory and recover from it.
    [db] supplies the database to recover into (default: a fresh one;
    must not have conflicting declarations).  If [db] already has
    committed state and the directory is empty, an initial checkpoint
    roots it.  [policy] (default {!default_policy}) schedules periodic
    checkpoints.
    @raise Recovery_error on a corrupt checkpoint (torn WAL tails are
    truncated silently — they are expected after a crash). *)

val db : t -> Database.t
(** The recovered, hook-attached database: commits on it are durable. *)

val checkpoint : t -> unit
(** Take a checkpoint now (graceful-shutdown path). *)

val group : t -> (unit -> 'a) -> 'a
(** [group t f] runs [f] in group-commit mode: data commits performed
    inside [f] buffer their WAL records instead of paying a per-commit
    fsync, and when [f] returns the whole batch is appended and fsynced
    once ({!Dc_wal.Wal.append_batch}).  Callers must treat a commit as
    acknowledged only after [group] returns — inside [f] the commit is
    published in memory but not yet durable.  Catalog commits inside the
    group still checkpoint immediately (the image subsumes the buffered
    records, which are dropped).  On a real I/O failure during the batch
    flush, durability is re-rooted in a full checkpoint.  Single-caller
    discipline: only the serving writer thread may call this; nested
    calls join the outer group.  An exception from [f] still flushes the
    records of the commits that succeeded before propagating. *)

val close : t -> unit
(** Final checkpoint (unless redundant), detach hooks, close the log. *)

val durable_lsn : t -> int
val replayed : t -> int
(** Number of WAL records replayed by [open_dir] (0 = clean start). *)
