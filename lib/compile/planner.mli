(** The query-compilation level of paper §4: choose an evaluation method
    per query form, following the paper's three-level strategy — dependency
    graph (type-checking level), augmented quant graph + decompilation or
    fixpoint plan (query compilation level), execution (runtime level).

    A decision reads the catalog only, through a
    {!Dc_calculus.Typecheck.env} — {!Dc_core.Database.typecheck_env} and
    {!Dc_core.Snapshot.typecheck_env} both provide one — and holds no
    relation value: it runs over an {!Dc_calculus.Eval.env}, under that
    environment's guard and trace. *)

open Dc_relation
open Dc_calculus

(** A constructor whose application system {!Closure} proves regular. *)
type regular = { r_def : Defs.constructor_def; r_system : Closure.system }

(** A closure operator's seed: one binder of the query's comprehension
    ranges over the application [s_app] of [s_regular], and a constant or
    parameter binds its column [s_column] (0 or 1) to [s_key].  The
    operator traverses from that value, or backwards from it, once, and
    [s_query] — the query with that binder reading the relation
    [s_name], the application's text, which the execution binds to the
    pairs — reads them.  Any other application of the constructor, in
    another binder or in a selector's predicate, produces every pair. *)
type seed = {
  s_regular : regular;
  s_app : Ast.range;
  s_column : int;
  s_key : Ast.term;
  s_name : string;
  s_query : Ast.range;
}

(** Chosen evaluation method. *)
type method_ =
  | Direct  (** evaluate as written: LFP of the application system *)
  | Decompiled of Ast.range  (** inlined as a view (acyclic) *)
  | Pushed of Ast.range  (** restriction distributed over branches *)
  | Traversal of {
      systems : regular list;
          (** the recursive constructors the query applies whose systems
              are regular: each of their applications runs the closure
              operator ({!Dc_exec.Reach}) over its labels, evaluated for
              its base and arguments, not the system's fixpoint *)
      seed : seed option;
    }
  | Magic of {
      program : Dc_datalog.Syntax.program;  (** the translated program *)
      query : Dc_datalog.Syntax.atom;
          (** constants, a variable named after each parameter binding
              (its value seeds the compiled program at run time), [Q<i>]
              free *)
      compiled : Dc_datalog.Magic.compiled;
          (** the program adorned for the query's binding pattern *)
      schema : Schema.t;
      residual : Ast.formula;  (** conjuncts magic could not absorb *)
      var : Ast.var;
    }  (** the recursive capture rule *)

type decision = {
  d_query : Ast.range;
  d_schema : Schema.t;  (** the query's result schema, from the typechecker *)
  d_method : method_;
  d_plan : Plan.t option;
      (** the physical plan of what a [Direct], [Decompiled] or [Pushed]
          method runs — the query or its rewritten form — when that is a
          comprehension with no application in range position (the one
          compile rule); [None] means it is interpreted *)
  d_quant_graph : Quant_graph.t;
  d_notes : string list;  (** human-readable planning notes *)
}

val method_name : method_ -> string

val plan : Typecheck.env -> Ast.range -> decision
(** Typecheck a query against the catalog and plan it.
    @raise Dc_calculus.Typecheck.Error *)

val execute : ?use_indexes:bool -> Eval.env -> decision -> Relation.t
(** Runtime level: run the decision over the environment's relations,
    under its guard; when the environment traces, the trace records every
    physical pipeline the execution lowers and runs, whatever the method,
    and the rounds of its last recursive evaluation (constructor fixpoint
    or magic-sets Datalog rounds) or closure traversals.  The result has the query's schema.
    [use_indexes:false] forces full scans in compiled plans (the E11
    ablation).
    @raise Dc_guard.Guard.Exhausted when the guard trips *)

(** {1 Prepared query forms}

    §4: "database programming languages ... contain only incompletely
    specified query forms"; a prepared form is compiled once with its
    scalar parameters as dummy constants (the paper's logical access path)
    and executed many times with actual values.  A form holds only
    catalog-level data (the planner's decision over the form, as {!plan}
    makes it), never a relation value: it is bound to an evaluation
    environment at run time. *)

type prepared

val prepare :
  Typecheck.env ->
  params:(string * Dc_relation.Value.ty) list ->
  Ast.range ->
  prepared
(** Typecheck a query form whose [Ast.Param] placeholders are listed in
    [params] against the catalog and {!plan} it, a parameter standing
    where a constant would: an application-free comprehension becomes a
    static plan with the parameters as index keys, and a parameter that
    restricts a recursive application binds its column for the capture
    rule or the closure operator, its value becoming the magic seed or
    the traversal's source at run time.  An application
    a maintained view answers stays direct, so the view serves it.
    @raise Dc_calculus.Typecheck.Error *)

val run_prepared :
  prepared -> Eval.env -> Dc_relation.Value.t list -> Relation.t
(** Bind the parameters to the values and {!execute} the form's decision
    over [env].
    @raise Dc_calculus.Eval.Runtime_error on arity/type mismatch. *)

val prepared_description : prepared -> string
(** How the form was compiled: its static plan, or the method its
    decision runs and the planning notes (shown by diagnostics). *)

val explain : decision Fmt.t
(** Query, method, notes, rewritten form / translated program, the
    physical plan, and the augmented quant graph. *)
