(** The Datalog rule compiler: shared machinery of the engines, lowering
    each rule body onto the physical operator IR ({!Dc_exec.Ir}).

    Positive atoms become scans or keyed probes (constants and
    already-bound variables form the index key), negated atoms anti-joins,
    built-in tests filters attached at the earliest point their variables
    are bound.  The row threaded through a pipeline is a [Value.t array]
    with one slot per rule variable, mutated in place. *)

open Dc_relation

type row = Value.t array

(** {1 Errors}

    One structured taxonomy for the whole Datalog layer (compiler and
    engines), replacing ad-hoc [Invalid_argument]s. *)

type error_kind =
  | Unsafe_rule  (** negation/test can never be grounded, floundering *)
  | Unbound_variable  (** a variable was consulted before any binding *)
  | Unsupported  (** the engine does not implement this feature *)
  | Internal  (** broken engine invariant — a bug *)

exception Error of error_kind * string

val error : error_kind -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error} with a formatted message. *)

val dummy : Value.t
(** Placeholder filling unbound slots of a fresh row. *)

(** {1 Extents over fact stores} *)

val store_extent : ?label:string -> Facts.t -> string -> Dc_exec.Extent.t
(** One predicate's tuples as a physical extent; keyed lookups go through
    the store's delta-incremental index cache. *)

val delta_name : string -> string
(** ["Δpred"] — the named source under which a pipeline reads the
    semi-naive delta of [pred] instead of the full store. *)

val split_delta : string -> string option
(** [Some pred] when the name is ["Δpred"], [None] otherwise. *)

val post_name : string -> string
(** ["⊕pred"] — the named source under which a pipeline reads the
    post-update store of [pred]; used by the incremental-maintenance
    counting pass, which telescopes a product of per-atom updates
    (post stores left of the delta, pre stores right of it). *)

val split_post : string -> string option

val store_ctx : Facts.t -> Dc_exec.Ir.ctx
(** Resolve every named source against one store (naive rounds). *)

val delta_ctx : full:Facts.t -> delta:Facts.t -> Dc_exec.Ir.ctx
(** Resolve ["pred"] against [full] and ["Δpred"] against [delta]
    (semi-naive rounds swap stores under an unchanged pipeline). *)

val tri_ctx : pre:Facts.t -> post:Facts.t -> delta:Facts.t -> Dc_exec.Ir.ctx
(** Resolve ["pred"] against [pre], ["⊕pred"] against [post] and
    ["Δpred"] against [delta] (the counting pass's three layers). *)

val group_by_head : Syntax.program -> (string * Syntax.rule list) list
(** Rules grouped by head predicate; predicates ordered by first
    appearance, rules by program order. *)

(** {1 Rule compilation} *)

(** How one positive atom occurrence reads its tuples. *)
type src_spec =
  | Static of Dc_exec.Ir.source
      (** a fixed or named extent: scans and keyed probes apply *)
  | Dynamic of ((row -> Syntax.term list) -> row -> Dc_exec.Extent.t)
      (** correlated consult (the tabled engine's subgoal tables): the
          callback receives [inst], which instantiates the atom's
          arguments from the current row (bound variables become
          constants), and returns the extent to scan for that row *)

type compiled = {
  pipeline : Dc_exec.Ir.t;  (** [Project] over the compiled body *)
  n_slots : int;
  slot : string -> int;  (** slot of a rule variable (raises if unbound) *)
  set_init : (unit -> row) -> unit;
      (** override the initial-row thunk (the tabled engine seeds call
          constants into head-variable slots) *)
}

val compile_rule :
  ?reorder:bool ->
  ?card:(int -> Syntax.atom -> int option) ->
  ?bound:string list ->
  source:(int -> Syntax.atom -> src_spec) ->
  neg_source:(Syntax.atom -> Dc_exec.Ir.source) ->
  label:string Lazy.t ->
  Syntax.rule ->
  compiled
(** Compile one rule body into a pipeline producing head tuples.

    [source i atom] chooses how positive atom [i] (program order, the
    semi-naive engine substitutes delta names this way) reads its tuples;
    [neg_source] resolves negated atoms.  [card i atom] is an optional
    cardinality hint for the join-order rewrite ([Some 0] marks the
    delta); [reorder:false] keeps program order (the tabled engine's
    sideways information passing depends on it).  [bound] lists variables
    pre-bound in the initial row (slots allocated first, in order).

    @raise Error ([Unsafe_rule]) if a negation or test can never be
    grounded. *)

(** {1 Shared delta-rule derivation}

    Semi-naive rounds, insert propagation, DRed over-deletion and the
    counting pass all evaluate the same syntactic object: rule variants
    where one positive occurrence of a "moving" predicate reads a delta
    while the others read full stores.  These helpers derive the variants
    once; engines specialize them through [names] and the runtime
    context. *)

val delta_positions : member:(string -> bool) -> Syntax.rule -> int list
(** Positions (among positive atoms, program order) whose predicate
    satisfies [member]. *)

val compile_variant :
  ?reorder:bool ->
  ?delta_pos:int ->
  names:(int -> Syntax.atom -> string) ->
  label:string Lazy.t ->
  Syntax.rule ->
  compiled
(** Compile one variant: positive atom [i] reads the named source
    [names i atom]; negations read the plain predicate name.  [delta_pos]
    marks the delta occurrence with a zero-cardinality hint so the
    join-order rewrite scans it first. *)
