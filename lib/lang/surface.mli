(** Surface abstract syntax of the DBPL subset, as parsed; the elaborator
    resolves type names and lowers everything onto [Dc_calculus.Ast]. *)

type scalar_type =
  | S_integer
  | S_string
  | S_boolean
  | S_real
  | S_named of string  (** alias — may denote a scalar or a relation type *)
  | S_range of int * int
      (** refined integers: [RANGE lo..hi] (paper §2.1's partidtype) *)

type type_expr =
  | T_scalar of scalar_type
  | T_relation of {
      key : string list;  (** [[]] = whole-tuple key *)
      fields : (string list * scalar_type) list;
          (** e.g. [front, back: parttype] *)
    }

type param = {
  p_name : string;
  p_type : scalar_type;  (** resolved to scalar or relation at elaboration *)
}

type term =
  | T_int of int
  | T_float of float
  | T_string of string
  | T_field of string * string  (** [r.front] *)
  | T_name of string  (** parameter reference *)
  | T_binop of Dc_calculus.Ast.binop * term * term

type formula =
  | F_true
  | F_false
  | F_cmp of Dc_calculus.Ast.cmpop * term * term
  | F_not of formula
  | F_and of formula * formula
  | F_or of formula * formula
  | F_some of string * range * formula
  | F_all of string * range * formula
  | F_in of string * range  (** [r IN range] *)
  | F_member of term list * range  (** [<t, ...> IN range] *)

and range =
  | R_name of string
  | R_select of range * string * arg list  (** [range[sel(args)]] *)
  | R_construct of range * string * arg list  (** [range{con(args)}] *)
  | R_comp of branch list  (** [{ branch, ... }] *)

and arg =
  | A_term of term
  | A_name of string  (** a relation or a scalar parameter — elaboration decides *)
  | A_range of range

and branch = {
  b_target : term list;  (** [[]] = identity *)
  b_agg : (Dc_agg.Agg.op * int) option;
      (** [MIN]/[MAX]/[COUNT]/[SUM] prefix on the target term at this
          index — at most one per branch *)
  b_group : term list;
      (** [GROUP BY] terms after the where formula; [[]] defaults to
          every non-aggregated target term *)
  b_binders : (string * range) list;
  b_where : formula;
}

type selector_decl = {
  s_name : string;
  s_params : param list;
  s_formal : string;
  s_formal_type : string;
  s_var : string;
  s_range : string;  (** must equal the formal *)
  s_pred : formula;
}

type constructor_decl = {
  c_name : string;
  c_formal : string;
  c_formal_type : string;
  c_params : param list;
  c_result_type : string;
  c_body : branch list;
}

(** A [SET LIMIT] budget kind. *)
type limit_kind =
  | L_rows
  | L_rounds
  | L_millis

type decl =
  | D_type of string * type_expr
  | D_var of string * string  (** [VAR name : relation-type-name] *)
  | D_selector of selector_decl
  | D_constructor of constructor_decl
  | D_insert of string * term list list
  | D_delete of string * term list list
  | D_assign of string * string option * arg list * range
      (** [Rel := range] or [Rel[sel(args)] := range] *)
  | D_query of range
  | D_print of range
  | D_explain of range
  | D_explain_analyze of range
      (** [EXPLAIN ANALYZE r;] — the EXPLAIN tree with per-operator wall
          time and per-round fixpoint statistics *)
  | D_show_metrics  (** [SHOW METRICS;] — dump the observability registry *)
  | D_limit of (limit_kind * int) list
      (** [SET LIMIT ROWS n, ROUNDS n, MILLIS n;] merged into the current
          limits; the empty list ([SET LIMIT NONE;]) clears them all *)
  | D_materialize of range
      (** [MATERIALIZE Rel{con(args)};] — compute the extent once and keep
          it incrementally maintained under INSERT/DELETE *)
  | D_maintain of bool  (** [SET MAINTAIN ON;] / [SET MAINTAIN OFF;] *)
  | D_parallel of int option
      (** [SET PARALLEL n;] — evaluate constructor fixpoints on [n]
          domains;
          [SET PARALLEL DEFAULT;] restores the environment-derived
          degree *)
  | D_explain_update of {
      eu_analyze : bool;
      eu_delete : bool;
      eu_rel : string;
      eu_rows : term list list;
    }
      (** [EXPLAIN [ANALYZE] INSERT/DELETE Rel VALUES (..);] — perform
          the update and print the maintenance pipeline's report *)
  | D_show_snapshot
      (** [SHOW SNAPSHOT;] — current published version, relation count,
          and maintained-view staleness *)
  | D_begin
      (** [BEGIN;] — pin the session to the current published snapshot:
          all reads until [COMMIT;] observe that one version *)
  | D_commit  (** [COMMIT;] — release the pinned snapshot *)

type program = decl list
