(** Magic-sets transformation — the general form of the "capture rules"
    the paper's §4 points at ([Ullm 84]) for propagating query constants
    into recursive definitions.  Positive safe programs, left-to-right
    sideways information passing. *)

exception Unsupported of string

type adornment = bool list
(** Per-argument: [true] = bound. *)

val adornment_string : adornment -> string
(** e.g. ["bf"]. *)

val adorned_name : string -> adornment -> string
val magic_name : string -> adornment -> string

val transform : Syntax.program -> Syntax.atom -> Syntax.program * string
(** [transform program query] adorns the program for the query's binding
    pattern and adds magic predicates and the seed fact.  Returns the
    transformed program and the adorned query predicate name.
    @raise Unsupported on negation, computed terms or non-IDB queries. *)

val answer :
  ?guard:Dc_guard.Guard.t ->
  ?stats:Seminaive.stats ->
  ?trace:Dc_exec.Ir.trace ->
  Syntax.program ->
  Facts.t ->
  Syntax.atom ->
  Facts.TS.t
(** Evaluate the query through the transform with semi-naive evaluation;
    returns the tuples of the original predicate matching the query
    constants.  [guard] is passed through to the semi-naive engine.
    @raise Dc_guard.Guard.Exhausted when the guard trips *)
