(* Selector and constructor definitions (paper §2.3, §3).

   These are syntactic objects — abstractions over "conditional patterns"
   (selectors) and "expressional patterns" (constructors).  Their semantics
   lives in [Dc_core]: selectors filter, constructors take least fixpoints. *)

open Dc_relation

type param =
  | Scalar_param of string * Value.ty
  | Rel_param of string * Schema.t

(* SELECTOR name (params) FOR Rel: reltype;
   BEGIN EACH v IN Rel: pred END name *)
type selector_def = {
  sel_name : string;
  sel_formal : string; (* the FOR formal, conventionally "Rel" *)
  sel_formal_schema : Schema.t;
  sel_params : param list;
  sel_var : Ast.var; (* the EACH variable of the body *)
  sel_pred : Ast.formula;
}

(* CONSTRUCTOR name FOR Rel: reltype (params): resulttype;
   BEGIN branch, branch, ... END name *)
type constructor_def = {
  con_name : string;
  con_formal : string;
  con_formal_schema : Schema.t;
  con_params : param list;
  con_result : Schema.t;
  con_agg : Dc_agg.Agg.spec option;
      (* aggregate applied to the branches' raw emissions (all branches
         share the spec); [con_result] is the aggregated schema *)
  con_body : Ast.branch list;
}
