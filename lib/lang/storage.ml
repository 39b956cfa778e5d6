(* The catalog image: a database's declarations written in the DBPL
   surface syntax (TYPE/VAR/SELECTOR/CONSTRUCTOR), the form a WAL
   checkpoint embeds.  Loading replays the source through the ordinary
   front end — parser, elaborator, type checker, positivity check — so a
   recovered database re-validates its catalog on the way in. *)

open Dc_relation
open Dc_core
open Dc_calculus

(* ------------------------------------------------------------------ *)
(* Rendering declarations in the surface grammar *)

let scalar_keyword = function
  | Value.TInt -> "INTEGER"
  | Value.TStr -> "STRING"
  | Value.TBool -> "BOOLEAN"
  | Value.TFloat -> "REAL"

(* a field's concrete type: the 2.1 refinement syntax when present *)
let field_type ty = function
  | Schema.No_refinement -> scalar_keyword ty
  | Schema.Int_range (lo, hi) -> Fmt.str "RANGE %d..%d" lo hi

(* TYPE t_<name> = RELATION k1, k2 OF RECORD a: T; b: T END; *)
let render_type buf name schema =
  let keys =
    if Schema.key_is_whole_tuple schema then Schema.attr_names schema
    else List.map (Schema.attr_name schema) (Schema.key_positions schema)
  in
  let fields =
    String.concat "; "
      (List.mapi
         (fun i a ->
           Fmt.str "%s: %s" a
             (field_type (Schema.attr_ty schema i) (Schema.attr_refinement schema i)))
         (Schema.attr_names schema))
  in
  Buffer.add_string buf
    (Fmt.str "TYPE %s = RELATION %s OF RECORD %s END;\n" name
       (String.concat ", " keys) fields)

(* Stable type name per distinct schema. *)
type type_table = {
  mutable types : (string * Schema.t) list; (* name -> schema, insertion order *)
  mutable counter : int;
}

let type_name_of table schema =
  match
    List.find_opt (fun (_, s) -> Schema.equal s schema) table.types
  with
  | Some (n, _) -> n
  | None ->
    table.counter <- table.counter + 1;
    let n = Fmt.str "t%d" table.counter in
    table.types <- table.types @ [ (n, schema) ];
    n

let render_params table params =
  match params with
  | [] -> ""
  | ps ->
    let one = function
      | Defs.Scalar_param (n, ty) -> Fmt.str "%s: %s" n (scalar_keyword ty)
      | Defs.Rel_param (n, schema) ->
        Fmt.str "%s: %s" n (type_name_of table schema)
    in
    Fmt.str " (%s)" (String.concat "; " (List.map one ps))

let render_selector table buf (d : Defs.selector_def) =
  Buffer.add_string buf
    (Fmt.str "SELECTOR %s%s FOR %s: %s;\nBEGIN EACH %s IN %s: %s END %s;\n"
       d.sel_name
       (render_params table d.sel_params)
       d.sel_formal
       (type_name_of table d.sel_formal_schema)
       d.sel_var d.sel_formal
       (Ast.formula_to_string d.sel_pred)
       d.sel_name)

(* An aggregated branch re-renders its MIN/MAX/COUNT/SUM prefix and an
   explicit GROUP BY, so the catalog round-trips through the parser to
   the same [con_agg] spec.  Identity branches have no target to mark. *)
let render_branch agg (b : Ast.branch) =
  match (agg, b.Ast.target) with
  | None, _ | _, [] -> Fmt.str "%a" Ast.pp_branch b
  | Some (spec : Dc_agg.Agg.spec), ts ->
    let target =
      String.concat ", "
        (List.mapi
           (fun i t ->
             if i = spec.value then
               Fmt.str "%s %s" (Dc_agg.Agg.op_name spec.op)
                 (Ast.term_to_string t)
             else Ast.term_to_string t)
           ts)
    in
    let binders =
      String.concat ", "
        (List.map
           (fun (v, r) -> Fmt.str "EACH %s IN %s" v (Ast.range_to_string r))
           b.Ast.binders)
    in
    let group =
      (* an empty group (global aggregate) only arises from a
         single-term target, where the parser's default reproduces it *)
      match spec.group with
      | [] -> ""
      | g ->
        Fmt.str " GROUP BY %s"
          (String.concat ", "
             (List.map (fun i -> Ast.term_to_string (List.nth ts i)) g))
    in
    Fmt.str "<%s> OF %s: %s%s" target binders
      (Ast.formula_to_string b.Ast.where)
      group

let render_constructor table buf (d : Defs.constructor_def) =
  Buffer.add_string buf
    (Fmt.str "CONSTRUCTOR %s FOR %s: %s%s: %s;\nBEGIN %s END %s;\n" d.con_name
       d.con_formal
       (type_name_of table d.con_formal_schema)
       (render_params table d.con_params)
       (type_name_of table d.con_result)
       (String.concat ",\n      " (List.map (render_branch d.con_agg) d.con_body))
       d.con_name)

(* ------------------------------------------------------------------ *)
(* Catalog rendering / replay (also the WAL checkpoint's catalog image) *)

let render_catalog db =
  let table = { types = []; counter = 0 } in
  let vars = Buffer.create 256 in
  List.iter
    (fun name ->
      let rel = Database.get db name in
      let tname = type_name_of table (Relation.schema rel) in
      Buffer.add_string vars (Fmt.str "VAR %s: %s;\n" name tname))
    (Database.relation_names db);
  let defs = Buffer.create 256 in
  List.iter
    (fun name ->
      match Database.selector db name with
      | Some d -> render_selector table defs d
      | None -> ())
    (Database.selector_names db);
  (* mutually recursive constructors must stay adjacent: emit in SCC
     dependency order *)
  let all_constructors =
    List.filter_map (Database.constructor db) (Database.constructor_names db)
  in
  List.iter
    (fun component -> List.iter (render_constructor table defs) component)
    (Positivity.sccs all_constructors);
  (* types first (collected while rendering), then vars, then defs *)
  let decls = Buffer.create 1024 in
  List.iter (fun (n, s) -> render_type decls n s) table.types;
  Buffer.add_buffer decls vars;
  Buffer.add_buffer decls defs;
  Buffer.contents decls

let load_catalog ?(db = Database.create ()) source =
  let env = Elaborate.create db in
  ignore (Elaborate.run env (Parser.parse source));
  db
