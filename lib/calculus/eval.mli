(** Set-oriented evaluation of calculus expressions — the paper's
    "set-construction framework".

    Branches execute as pipelined scans with hash-index lookups for
    equi-join conjuncts (each WHERE conjunct is attached to the first
    binder position at which its variables are bound; conjuncts of shape
    [v.a = closed-term] become index keys).  Selector and constructor
    applications are delegated to {!hooks}, which [Dc_core] instantiates
    with the filtering and fixpoint semantics — keeping this module free of
    a dependency on the engine. *)

open Dc_relation

exception Runtime_error of string

val runtime_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Runtime_error} with a formatted message. *)

module SM : Map.S with type key = string

(** Evaluated actual arguments. *)
type arg_value =
  | V_scalar of Value.t
  | V_rel of Relation.t

type binding = {
  b_tuple : Tuple.t;
  b_schema : Schema.t;
}

(** Evaluation environment. *)
type env = {
  rels : Relation.t SM.t;  (** named relations in scope *)
  vars : binding SM.t;  (** bound tuple variables *)
  scalars : Value.t SM.t;  (** scalar parameter values *)
  hooks : hooks;
  icache : Index_cache.t;
      (** per-evaluation index cache for keys off a relation's leading
          columns (leading-column keys are range scans), keyed on
          relation identity + positions; fixpoint drivers advance it with
          per-round deltas *)
  trace : Dc_exec.Ir.trace option;
      (** when set, every lowered physical pipeline is recorded here with
          its post-run operator counters (EXPLAIN) *)
  guard : Dc_guard.Guard.t;
      (** resource governor ticked by every pipeline this environment
          runs; defaults to [Guard.none] (no limits) *)
}

and hooks = {
  selector_def : string -> Defs.selector_def option;
  constructor_def : string -> Defs.constructor_def option;
  on_select :
    env -> Relation.t -> Defs.selector_def -> arg_value list -> Relation.t;
  on_construct :
    env -> Relation.t -> Defs.constructor_def -> arg_value list -> Relation.t;
}

val no_hooks : hooks
(** Hooks that resolve no definitions (applications raise). *)

val make_env :
  ?vars:(Ast.var * Tuple.t * Schema.t) list ->
  ?scalars:(string * Value.t) list ->
  ?hooks:hooks ->
  ?trace:Dc_exec.Ir.trace ->
  ?guard:Dc_guard.Guard.t ->
  (string * Relation.t) list ->
  env

val with_trace : env -> Dc_exec.Ir.trace -> env
(** Enable pipeline tracing on an existing environment. *)

val with_guard : env -> Dc_guard.Guard.t -> env
(** Install a resource governor on an existing environment. *)

val bind_rel : env -> string -> Relation.t -> env
val bind_var : env -> Ast.var -> Tuple.t -> Schema.t -> env
val bind_scalar : env -> string -> Value.t -> env

val clear_vars : env -> env
(** Drop all tuple-variable bindings (definition bodies evaluate in a
    fresh variable scope). *)

val application_env :
  env -> Defs.constructor_def -> Relation.t -> arg_value list -> env
(** The environment a constructor's body is evaluated in for the
    application [base{def(args)}]: [env]'s relations, its formal bound to
    [base] and its parameters to [args], each viewed at its declared
    type, and no tuple variable.
    @raise Runtime_error on an argument that does not match its
    parameter. *)

val lookup_rel : env -> string -> Relation.t
(** @raise Runtime_error if unknown. *)

val range_schema : env -> (Ast.var * Schema.t) list -> Ast.range -> Schema.t
(** Schema of a range, computed without evaluating it (constructor
    applications contribute their declared result type). *)

val eval_term : env -> Ast.term -> Value.t
val eval_cmp : Ast.cmpop -> Value.t -> Value.t -> bool
val eval_formula : env -> Ast.formula -> bool
val eval_range : env -> Ast.range -> Relation.t
val eval_args : env -> Ast.arg list -> arg_value list

val eval_comp : ?schema:Schema.t -> env -> Ast.branch list -> Relation.t
(** Evaluate a comprehension. [schema] imposes the result schema (used for
    constructor bodies, whose result type is declared); otherwise it is
    inferred from the first branch. *)

val eval_branch :
  env -> Ast.branch -> emit:('a -> Tuple.t -> 'a) -> 'a -> 'a
(** Fold [emit] over the tuples one branch produces (after join
    scheduling); used directly by the semi-naive fixpoint engine. *)

(** {1 Join scheduling}

    The one rule by which the evaluator and the compiled plans schedule
    a comprehension branch whose enclosing scope binds the tuple
    variables [outer]. *)

val prefilters : outer:Vars.S.t -> Ast.branch -> Ast.formula list
(** The WHERE conjuncts that need no binder of the branch: closed by
    [outer] alone, they gate the whole branch. *)

(** One binder of a scheduled branch, in join order. *)
type placed = {
  p_binder : int;  (** the binder's position in the branch *)
  p_keys : (string * Ast.term) list;
      (** [attr = term] equality keys, each term closed by [outer] and
          the binders placed before *)
  p_filters : Ast.formula list;  (** conjuncts closed once it is bound *)
}

val schedule :
  card:(int -> int option) -> outer:Vars.S.t -> Ast.branch -> placed list
(** The binders in join order, with every conjunct that is not a
    prefilter placed at the last join position among the binders it
    needs.  Order is {!Dc_exec.Join_order}'s rule over the index keys
    each binder can use; [card i], the size of binder [i]'s range when
    known, breaks ties (the evaluator passes the sizes of its
    pre-evaluated ranges; a compiled plan knows none). *)

(** {1 Slot-row lowering}

    The compiled form every branch runs in: the IR row is a
    [Tuple.t array] with one slot per binder in join order, and terms,
    keys and filters are closures over it compiled once per lowering.
    {!eval_branch} and the compiled query plans both lower through
    {!lower_steps}. *)

(** One binder of a branch, in join order. *)
type step = {
  var : Ast.var;
  schema : Schema.t;  (** schema the binder's fields resolve against *)
  source : step_source;
  keys : (string * Ast.term) list;
      (** [attr = term] equality keys probing the source, each term closed
          by the earlier steps; [] scans *)
  filters : Ast.formula list;  (** conjuncts closed once [var] is bound *)
}

and step_source =
  | Fixed of Relation.t * string
      (** an evaluated range and its EXPLAIN source label *)
  | Correlated of (env -> Relation.t)
      (** evaluated per row, under [env] extended with the earlier steps'
          bindings; keys degrade to filters *)

val lower_steps :
  ?label:string ->
  ?prefilters:Ast.formula list ->
  env ->
  step list ->
  target:Ast.term list ->
  Dc_exec.Ir.t
(** The pipeline of a step list: [prefilters] (closed before any binder)
    filter the seed row, each step scans or probes its source, its
    filters follow it, and the projection builds [target] ([] = the
    single step's tuple).  [label] overrides the projection's EXPLAIN
    label. *)

val query : env -> Ast.range -> Relation.t
(** Alias of {!eval_range}. *)
