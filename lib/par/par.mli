(** Reusable domain pool and sharded map for the constructor fixpoint's
    parallel rounds, plus task submission for the server's read pool.

    The pool is process-global, lazily spawned, and reused across
    evaluations: the first parallel round pays the [Domain.spawn] cost,
    subsequent rounds only pay a condition-variable wakeup.  Worker
    domains block on a job queue; [map] submits shards 1..P-1 to the
    queue and runs shard 0 inline on the calling domain, so a
    single-shard call never touches the pool at all.

    Calls from a worker domain (or any non-main domain) degrade to
    sequential inline execution — nesting cannot deadlock the pool. *)

(** {1 Configuration} *)

val domains : unit -> int
(** Current parallelism degree [P >= 1].  Initialized from the
    [DC_DOMAINS] environment variable when set to a positive integer,
    otherwise [max 1 (Domain.recommended_domain_count () - 1)].  [1]
    means fully sequential evaluation. *)

val set_domains : int -> unit
(** Set the parallelism degree (clamped to [>= 1]).  Backs the surface
    [SET PARALLEL n;] statement and [dbpl --domains]. *)

val reset_domains : unit -> unit
(** Restore the environment-derived default degree ([SET PARALLEL
    DEFAULT;]). *)

val with_domains : int -> (unit -> 'a) -> 'a
(** [with_domains p f] runs [f] with the degree scoped to [p],
    restoring the previous value on exit (including on exceptions). *)

val seq_cutoff : unit -> int
(** Minimum work-set cardinality (delta tuples) below which callers
    should stay sequential: sharding a handful of tuples costs more in
    partition/merge than it saves.  Default [64]. *)

val set_seq_cutoff : int -> unit

val with_seq_cutoff : int -> (unit -> 'a) -> 'a
(** Scoped override of {!seq_cutoff}; the oracle uses [with_seq_cutoff 1]
    to force the parallel code path onto tiny generated workloads. *)

(** {1 Sharded execution} *)

val map :
  ?on_first_error:(exn -> unit) ->
  ?prefer:(exn -> bool) ->
  shards:int ->
  (int -> 'a) ->
  'a array
(** [map ~shards f] evaluates [f 0 .. f (shards-1)] — shard 0 on the
    calling domain, the rest on pool workers — and returns the results
    in shard order.  The call is a barrier: it returns only after every
    shard has finished (even when some raised).

    Exceptions: each shard's exception is captured; after the barrier
    the call re-raises the exception of the lowest-numbered shard whose
    exception satisfies [prefer] (default: all), falling back to the
    lowest-numbered exception outright.  [on_first_error] is invoked at
    most once, as soon as the first shard fails and while the others
    are still running — engines use it to [Guard.cancel] the shared
    guard so sibling shards trip out quickly. *)

val run : (unit -> 'a) -> 'a
(** [run f] executes [f] on a pool worker domain and blocks the calling
    thread until it finishes (exceptions re-raised with their original
    backtrace).  This is task submission, not a sharded barrier: any
    number of threads can [run] closures concurrently and they execute
    in parallel on distinct workers — the serving layer uses it to take
    read-statement evaluation off the main domain, where systhreads
    interleave, onto truly parallel domains over frozen snapshots.

    Degrades to calling [f] inline when the degree is 1 (no workers
    configured) or when called from a non-main domain (a worker must
    never block on its own pool). *)

(** {1 Observability} *)

val observe_round : shard_sizes:int array -> merge_ms:float -> unit
(** Record one parallel round into the [dc_par_*] instruments: one
    {e dc_par_rounds} tick, each shard's size into
    {e dc_par_shard_rows}, the barrier merge time into
    {e dc_par_merge_ms}, and the imbalance ratio (largest shard over
    mean shard) into {e dc_par_imbalance}. *)

(** {1 Pool introspection (tests)} *)

val pool_size : unit -> int
(** Number of worker domains currently spawned (main excluded). *)

val shutdown : unit -> unit
(** Join and discard all pool workers.  Registered [at_exit]; safe to
    call repeatedly, and the pool respawns lazily if used again. *)
