(** Magic-sets transformation — the general form of the "capture rules"
    the paper's §4 points at ([Ullm 84]) for propagating query constants
    into recursive definitions.  Positive safe programs, left-to-right
    sideways information passing. *)

exception Unsupported of string

type adornment = bool list
(** Per-argument: [true] = bound. *)

val adornment_string : adornment -> string
(** e.g. ["bf"]. *)

val magic_name : string -> adornment -> string

type compiled
(** A program adorned for one binding pattern of one query predicate:
    the adorned and magic rules every query with that pattern runs.  A
    query form compiles once per binding pattern; its constants enter
    at run time, as the seed fact. *)

val compile : Syntax.program -> string -> adornment -> compiled
(** [compile program pred pattern] adorns [program] for queries on
    [pred] whose arguments are bound where [pattern] is [true].
    @raise Unsupported on negation, computed terms or a non-IDB [pred]. *)

val rules : compiled -> Syntax.program
(** The adorned and magic rules, without the seed fact. *)

val run :
  ?guard:Dc_guard.Guard.t ->
  ?stats:Seminaive.stats ->
  ?trace:Dc_exec.Ir.trace ->
  compiled ->
  Facts.t ->
  Syntax.atom ->
  Facts.TS.t
(** Seed a compiled program with the query's constants and evaluate it
    with semi-naive evaluation; returns the tuples of the original
    predicate matching the query constants.
    @raise Dc_guard.Guard.Exhausted when the guard trips
    @raise Invalid_argument when the query's constant positions are not
    the compiled pattern *)

val answer :
  ?guard:Dc_guard.Guard.t ->
  ?stats:Seminaive.stats ->
  ?trace:Dc_exec.Ir.trace ->
  Syntax.program ->
  Facts.t ->
  Syntax.atom ->
  Facts.TS.t
(** {!compile} for the query's pattern, then {!run}. *)
