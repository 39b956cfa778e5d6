(** The unified resource governor of the evaluation stack.

    A {!t} carries a wall-clock deadline, a row/step budget, a fixpoint
    round budget, and a cooperative cancellation flag.  The physical
    executor ({!Dc_exec.Ir}) {!tick}s it on every operator emission — the
    same hot-path hooks that maintain the per-operator row counters — and
    every fixpoint driver (constructor fixpoint, the four Datalog engines,
    SLD resolution) calls {!round} once per iteration.  Whichever limit
    trips first raises the single structured error {!Exhausted}, carrying
    the partial progress made (rows produced, rounds completed, elapsed
    time, the EXPLAIN label of the tripping operator).

    Guards are plain mutable values with no global registry: the shared
    {!none} guard never trips, costing one increment and one compare per
    emission, so engines thread a guard unconditionally instead of
    branching on an option on the hot path.

    {!Failpoint} is the deterministic fault-injection layer used to verify
    abort atomicity: "raise at the Nth hit of site S", armed through the
    API or the [DC_FAILPOINT] environment variable. *)

(** Declarative limits (what the surface language's [SET LIMIT] sets). *)
type limits = {
  l_millis : int option;  (** wall-clock budget per evaluation *)
  l_rows : int option;  (** operator row-emission budget *)
  l_rounds : int option;  (** fixpoint / Datalog round budget *)
}

val no_limits : limits

val limits : ?millis:int -> ?rows:int -> ?rounds:int -> unit -> limits

(** Why an evaluation was stopped. *)
type reason =
  | Rows_exhausted of int  (** row budget (the limit) exceeded *)
  | Rounds_exhausted of int  (** round budget (the limit) exceeded *)
  | Deadline_exceeded of int  (** wall-clock budget in ms exceeded *)
  | Cancelled  (** {!cancel} was called *)
  | Fault_injected of string  (** a {!Failpoint} site fired *)

(** Partial progress at the moment of the trip. *)
type progress = {
  pg_rows : int;  (** operator rows emitted under this guard *)
  pg_rounds : int;  (** fixpoint rounds completed *)
  pg_elapsed_ms : float;
  pg_operator : string option;  (** EXPLAIN label of the tripping operator *)
  pg_site : string option;  (** tick site, when not an operator tick *)
}

exception Exhausted of reason * progress

type t

val none : t
(** The shared never-tripping guard (all limits infinite).  {!cancel} on
    it is a no-op, so it is safe to install as a default everywhere. *)

val create : ?millis:int -> ?rows:int -> ?rounds:int -> unit -> t
(** A fresh guard; omitted limits are infinite.  The deadline clock
    starts now. *)

val of_limits : limits -> t
(** {!create} from declarative limits; returns {!none} when every field
    is [None] (no allocation, no clock read). *)

val is_none : t -> bool
(** Is this the shared {!none} guard (i.e. no limits are in force)? *)

val cancel : t -> unit
(** Cooperative cancellation: the next {!tick}/{!round}/{!check} raises
    [Exhausted (Cancelled, _)].  No-op on {!none}. *)

val rows : t -> int
val rounds : t -> int

val tick : t -> string Lazy.t -> unit
(** Hot-path tick, called per operator row emission with the operator's
    (lazy) EXPLAIN label.  Counts the row; trips on row budget or
    cancellation immediately, on the deadline every 256 rows.
    @raise Exhausted *)

val ticks : t -> string Lazy.t -> int -> unit
(** [ticks g label count] is [count] {!tick}s in one step, for an
    operator that emits a block of rows: the row budget, cancellation
    and the deadline (checked at each multiple of 256 rows) trip at the
    row a tick per row would have, and the count stops there.  Under an
    armed {!Failpoint} each row is one hit of ["exec.row"].
    @raise Exhausted *)

val round : t -> site:string -> unit
(** Per-fixpoint-round tick.  Counts the round; trips on round budget,
    cancellation, or deadline (checked unconditionally — rounds are
    coarse).  Also a {!Failpoint} site.  @raise Exhausted *)

val check : t -> site:string -> unit
(** Deadline/cancellation check without counting anything (evaluation
    entry points).  Also a {!Failpoint} site.  @raise Exhausted *)

val pp_reason : reason Fmt.t

val pp_report : (reason * progress) Fmt.t
(** The user-facing exhaustion report: reason, partial progress, and the
    tripping operator's EXPLAIN label. *)

(** Deterministic fault injection: a site fires (raises
    [Exhausted (Fault_injected site, _)]) at its Nth hit, then disarms.
    Sites in the stack: ["exec.row"] (every executor emission),
    ["eval.branch"] (calculus branch evaluation), ["fixpoint.round"],
    ["fixpoint.commit"] (mid round-commit, between per-application
    updates), ["datalog.round"], ["tabled.round"].

    When nothing is armed the cost is one mutable bool read per tick. *)
module Failpoint : sig
  val armed : bool ref
  (** True while any site is armed; hot paths gate on this. *)

  val arm : string -> int -> unit
  (** [arm site n]: the [n]th {!hit} of [site] raises (n >= 1). *)

  val install : string -> unit
  (** Parse and arm a schedule: ["site=N,site=N,..."]; a bare ["site"]
      means [site=1].  The [DC_FAILPOINT] environment variable is
      installed at startup (invalid specs are ignored with a warning).
      @raise Invalid_argument on a malformed spec *)

  val reset : unit -> unit
  (** Disarm every site. *)

  val hit : ?guard:t -> string -> unit
  (** Count one hit of [site]; raises when its counter reaches zero.
      [guard] supplies the progress snapshot for the error.
      @raise Exhausted *)

  val pending : unit -> (string * int) list
  (** Armed sites and their remaining hit counts. *)
end
