(** The query-compilation level of paper §4: choose an evaluation method
    per query form, following the paper's three-level strategy — dependency
    graph (type-checking level), augmented quant graph + decompilation or
    fixpoint plan (query compilation level), execution (runtime level). *)

open Dc_relation
open Dc_calculus
open Dc_core

(** Chosen evaluation method. *)
type method_ =
  | Direct  (** evaluate as written: LFP of the application system *)
  | Decompiled of Ast.range  (** inlined as a view (acyclic) *)
  | Pushed of Ast.range  (** restriction distributed over branches *)
  | Magic of {
      program : Dc_datalog.Syntax.program;
      query : Dc_datalog.Syntax.atom;
      schema : Schema.t;
      residual : Ast.formula;  (** conjuncts magic could not absorb *)
      var : Ast.var;
    }  (** the recursive capture rule *)

type decision = {
  d_query : Ast.range;
  d_method : method_;
  d_plan : Plan.t option;
      (** physical plan for [Decompiled]/[Pushed] methods (when the
          rewritten query compiles to a static pipeline) *)
  d_quant_graph : Quant_graph.t;
  d_recursive : bool;
  d_notes : string list;  (** human-readable planning notes *)
}

val method_name : method_ -> string

val translate_ctx : Database.t -> Dc_datalog.Translate.context

val plan : Database.t -> Ast.range -> decision
(** Typecheck and plan a query. *)

val edb_for : Database.t -> Dc_datalog.Syntax.program -> Dc_datalog.Facts.t
(** Collect the EDB relations a translated program references. *)

val execute :
  ?use_indexes:bool ->
  ?trace:Dc_exec.Ir.trace ->
  ?guard:Dc_guard.Guard.t ->
  ?datalog_stats:Dc_datalog.Seminaive.stats ->
  Database.t ->
  decision ->
  Relation.t
(** Runtime level: run the decision.  [use_indexes:false] forces full
    scans in compiled plans (the E11 ablation).  [trace] records every
    physical pipeline the execution lowers and runs, whatever the method
    — compiled plan, direct fixpoint, or magic-sets Datalog rounds.
    [guard] (default: a fresh guard over the database's limits) governs
    the execution whatever the method.  [datalog_stats], when given,
    receives the semi-naive round statistics of a [Magic] execution
    (EXPLAIN ANALYZE's per-round series for that method).
    @raise Dc_guard.Guard.Exhausted when the guard trips *)

val plan_and_execute : Database.t -> Ast.range -> Relation.t

(** {1 Prepared query forms}

    §4: "database programming languages ... contain only incompletely
    specified query forms"; a prepared form is compiled once with its
    scalar parameters as dummy constants (the paper's logical access path)
    and executed many times with actual values.  A form reads the catalog
    through a {!Dc_calculus.Typecheck.env} — {!Database.typecheck_env}
    and {!Snapshot.typecheck_env} both provide one — and holds only
    catalog-level data (the form, its plan, its result schema), never a
    relation value: it is bound to an evaluation environment at run
    time. *)

type prepared

val prepare :
  Typecheck.env ->
  params:(string * Dc_relation.Value.ty) list ->
  Ast.range ->
  prepared
(** Typecheck a query form whose [Ast.Param] placeholders are listed in
    [params] against the catalog.  An application-free comprehension
    becomes a static plan with the parameters as index keys; a form with
    a constructor or selector application is interpreted per call with
    the parameters bound, so view serving and the fixpoint route apply
    as they do to the unprepared query.
    @raise Dc_calculus.Typecheck.Error *)

val run_prepared :
  prepared -> Eval.env -> Dc_relation.Value.t list -> Relation.t
(** Run the form over [env]'s relations with the parameters bound to the
    values.  A compiled form's result is coerced to the schema the
    interpreted evaluation gives, so both routes return the same
    columns.
    @raise Dc_calculus.Eval.Runtime_error on arity/type mismatch. *)

val prepared_description : prepared -> string
(** How the form was compiled (shown by diagnostics). *)

val explain : decision Fmt.t
(** Query, method, notes, rewritten form / translated program, and the
    augmented quant graph. *)
