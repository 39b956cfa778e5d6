(* Translations between constructor systems and Horn-clause programs,
   realizing the §3.4 lemma ("the constructor mechanism is as powerful as
   function-free PROLOG without cut, fail, and negation") in both
   directions:

   - [of_application]: a constructor application over named relations
     becomes a Datalog program, one IDB predicate per reachable
     (constructor, base, arguments) instance, one rule per branch;
   - [to_constructors]: a positive safe Datalog program becomes a system of
     mutually recursive constructors, one per IDB predicate, each grown
     from an empty base relation (the paper's remark at the end of §3.1:
     "the programmer may prefer to start with an empty relation ... if the
     constructor is based on a join of several base relations").

   The equivalence is exercised by property tests (experiment E6): both
   engines must compute the same relations on shared workloads. *)

open Dc_relation
open Dc_calculus
open Syntax

exception Unsupported of string

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

(* ------------------------------------------------------------------ *)
(* Constructor application -> Datalog *)

type context = {
  lookup_constructor : string -> Defs.constructor_def option;
  schema_of : string -> Schema.t option; (* global (EDB) relations *)
}

let context (catalog : Typecheck.env) =
  {
    lookup_constructor = catalog.constructor_of;
    schema_of = catalog.schema_of_rel;
  }

(* The EDB of a translated program: every extensional predicate the
   lookup knows, loaded from its relation. *)
let edb relation program =
  SS.fold
    (fun p edb ->
      match relation p with
      | Some r -> Facts.of_relation p r edb
      | None -> edb)
    (edb_preds program) (Facts.empty ())

(* An instance closes a constructor over actual names/values. *)
type instance = {
  inst_con : string;
  inst_base : string; (* global relation name *)
  inst_args : inst_arg list;
}

and inst_arg =
  | IA_rel of string
  | IA_scalar of Value.t

let instance_pred inst =
  let arg_str = function
    | IA_rel n -> n
    | IA_scalar v -> String.map (function '"' -> '_' | c -> c) (Value.to_string v)
  in
  String.concat "__"
    (inst.inst_con :: inst.inst_base :: List.map arg_str inst.inst_args)

(* Union-find over variable names, for Eq-conjunct unification. *)
module Uf = struct
  let find parent v =
    let rec loop v =
      match Hashtbl.find_opt parent v with
      | Some p when p <> v -> loop p
      | _ -> v
    in
    loop v

  let union parent a b =
    let ra = find parent a and rb = find parent b in
    if ra <> rb then Hashtbl.replace parent ra rb
end

let rec translate_instance ctx ~emit_rule ~emit_agg ~seen inst =
  if Hashtbl.mem seen inst then ()
  else begin
    Hashtbl.replace seen inst ();
    let def =
      match ctx.lookup_constructor inst.inst_con with
      | Some d -> d
      | None -> unsupported "unknown constructor %s" inst.inst_con
    in
    (match def.con_agg with
    | Some spec -> emit_agg (instance_pred inst, spec)
    | None -> ());
    (* name environment: formal -> actual global name; params -> args *)
    let rel_env =
      (def.con_formal, inst.inst_base)
      :: List.filter_map
           (fun (p, a) ->
             match p, a with
             | Defs.Rel_param (n, _), IA_rel actual -> Some (n, actual)
             | Defs.Rel_param _, IA_scalar _ -> None
             | Defs.Scalar_param _, _ -> None)
           (List.combine def.con_params inst.inst_args)
    in
    let scalar_env =
      List.filter_map
        (fun (p, a) ->
          match p, a with
          | Defs.Scalar_param (n, _), IA_scalar v -> Some (n, v)
          | _ -> None)
        (List.combine def.con_params inst.inst_args)
    in
    let resolve_rel n =
      match List.assoc_opt n rel_env with
      | Some actual -> actual
      | None -> n (* global *)
    in
    let schema_of_binder = function
      | Ast.Rel n -> (
        let actual = resolve_rel n in
        match ctx.schema_of actual with
        | Some s -> s
        | None ->
          (* formal / param schemas *)
          if n = def.con_formal then def.con_formal_schema
          else
            (match
               List.find_opt
                 (function
                   | Defs.Rel_param (pn, _) -> pn = n
                   | Defs.Scalar_param _ -> false)
                 def.con_params
             with
            | Some (Defs.Rel_param (_, s)) -> s
            | _ -> unsupported "unknown relation %s" n))
      | Ast.Construct (_, c, _) -> (
        match ctx.lookup_constructor c with
        | Some d -> d.con_result
        | None -> unsupported "unknown constructor %s" c)
      | r -> unsupported "untranslatable range %a" Ast.pp_range r
    in
    (* resolve a binder range to a predicate name (registering recursive
       instances) *)
    let pred_of_range = function
      | Ast.Rel n -> resolve_rel n
      | Ast.Construct (Ast.Rel b, c, args) ->
        let inst' =
          {
            inst_con = c;
            inst_base = resolve_rel b;
            inst_args =
              List.map
                (function
                  | Ast.Arg_range (Ast.Rel n) -> IA_rel (resolve_rel n)
                  | Ast.Arg_scalar (Ast.Const v) -> IA_scalar v
                  | Ast.Arg_scalar (Ast.Param p) ->
                    IA_scalar (List.assoc p scalar_env)
                  | a -> unsupported "untranslatable argument %a" Ast.pp_arg a)
                args;
          }
        in
        translate_instance ctx ~emit_rule ~emit_agg ~seen inst';
        instance_pred inst'
      | r -> unsupported "untranslatable range %a" Ast.pp_range r
    in
    let head_pred = instance_pred inst in
    List.iter
      (fun (b : Ast.branch) ->
        (* variables: one per (binder, position) *)
        let var_name v i = Fmt.str "%s_%d" (String.capitalize_ascii v) i in
        let parent = Hashtbl.create 16 in
        let schemas =
          List.map (fun (v, r) -> (v, schema_of_binder r)) b.binders
        in
        let field_var v a =
          let schema =
            match List.assoc_opt v schemas with
            | Some s -> s
            | None -> unsupported "unbound variable %s" v
          in
          var_name v (Schema.attr_index schema a)
        in
        (* process conjuncts: Eq between fields unifies; Eq with constants
           binds; other comparisons become Test literals; negated
           memberships become Neg atoms (the stratified closed-world
           reading — the engines reject recursion through them) *)
        let const_bind = Hashtbl.create 8 in
        let tests = ref [] in
        let negs = ref [] in
        let rec term_of = function
          | Ast.Const v -> Const v
          | Ast.Param p -> Const (List.assoc p scalar_env)
          | Ast.Field (v, a) -> Var (field_var v a)
          | Ast.Binop (op, a, b) -> Binop (op, term_of a, term_of b)
        in
        List.iter
          (fun conj ->
            match conj with
            | Ast.True -> ()
            | Ast.Cmp (Ast.Eq, Ast.Field (v1, a1), Ast.Field (v2, a2)) ->
              Uf.union parent (field_var v1 a1) (field_var v2 a2)
            | Ast.Cmp (Ast.Eq, Ast.Field (v, a), t)
            | Ast.Cmp (Ast.Eq, t, Ast.Field (v, a)) -> (
              match term_of t with
              | Const c -> Hashtbl.replace const_bind (field_var v a) c
              | (Var _ | Binop _) as tv ->
                tests := Test (Ast.Eq, Var (field_var v a), tv) :: !tests)
            | Ast.Cmp (op, t1, t2) ->
              tests := Test (op, term_of t1, term_of t2) :: !tests
            | Ast.Not (Ast.Member (ts, r)) ->
              negs := (List.map term_of ts, r) :: !negs
            | Ast.Not (Ast.In_rel (v, r)) ->
              let schema =
                match List.assoc_opt v schemas with
                | Some s -> s
                | None -> unsupported "unbound variable %s" v
              in
              let ts =
                List.init (Schema.arity schema) (fun i ->
                    Var (var_name v i))
              in
              negs := (ts, r) :: !negs
            | f -> unsupported "untranslatable conjunct %a" Ast.pp_formula f)
          (Ast.conjuncts b.where);
        let resolve_var name =
          let root = Uf.find parent name in
          match Hashtbl.find_opt const_bind root with
          | Some c -> Const c
          | None -> (
            (* a variable unified with a constant through another member *)
            match
              Hashtbl.fold
                (fun v c acc ->
                  if acc = None && Uf.find parent v = root then Some c else acc)
                const_bind None
            with
            | Some c -> Const c
            | None -> Var root)
        in
        let body_atoms =
          List.map
            (fun (v, r) ->
              let pred = pred_of_range r in
              let schema = List.assoc v schemas in
              Pos
                {
                  pred;
                  args =
                    List.init (Schema.arity schema) (fun i ->
                        resolve_var (var_name v i));
                })
            b.binders
        in
        let rec resolve_term = function
          | Var v -> resolve_var v
          | Const _ as c -> c
          | Binop (op, a, b) -> Binop (op, resolve_term a, resolve_term b)
        in
        let resolve_test = function
          | Test (op, a, b) -> Test (op, resolve_term a, resolve_term b)
          | l -> l
        in
        let neg_literals =
          List.rev_map
            (fun (ts, r) ->
              Neg { pred = pred_of_range r; args = List.map resolve_term ts })
            !negs
        in
        let head_args =
          match b.target with
          | [] -> (
            match b.binders with
            | [ (v, r) ] ->
              let schema = schema_of_binder r in
              List.init (Schema.arity schema) (fun i ->
                  resolve_var (var_name v i))
            | _ -> unsupported "identity branch with several binders")
          | ts -> List.map (fun t -> resolve_term (term_of t)) ts
        in
        emit_rule
          {
            head = { pred = head_pred; args = head_args };
            body = body_atoms @ List.rev_map resolve_test !tests @ neg_literals;
          })
      def.con_body
  end

(* Translate the application  Base{c(args)}  (all names global).  Returns
   the program, the query predicate name, and the aggregate spec of every
   aggregated instance (the [?aggs] argument for [Seminaive.run] /
   [Stratify]). *)
let of_application_full ctx (range : Ast.range) =
  match range with
  | Ast.Construct (Ast.Rel base, c, args) ->
    let inst =
      {
        inst_con = c;
        inst_base = base;
        inst_args =
          List.map
            (function
              | Ast.Arg_range (Ast.Rel n) -> IA_rel n
              | Ast.Arg_scalar (Ast.Const v) -> IA_scalar v
              | a -> unsupported "untranslatable argument %a" Ast.pp_arg a)
            args;
      }
    in
    let rules = ref [] in
    let aggs = ref [] in
    let seen = Hashtbl.create 8 in
    translate_instance ctx
      ~emit_rule:(fun r -> rules := r :: !rules)
      ~emit_agg:(fun pa -> aggs := pa :: !aggs)
      ~seen inst;
    (List.rev !rules, instance_pred inst, List.rev !aggs)
  | r -> unsupported "not a constructor application: %a" Ast.pp_range r

(* Aggregate-free legacy entry point: engines other than the aggregate-
   aware semi-naive path must not silently evaluate aggregated systems as
   plain Horn clauses. *)
let of_application ctx range =
  match of_application_full ctx range with
  | program, pred, [] -> (program, pred)
  | _ ->
    unsupported
      "aggregated constructor system: only the aggregate-aware semi-naive \
       path evaluates it"

(* ------------------------------------------------------------------ *)
(* Datalog -> constructors *)

(* [to_constructors schema_of program] builds one constructor per IDB
   predicate.  Each constructor's formal base is an empty relation named
   ["__bottom_<pred>"]; EDB predicates are referenced as global relations.
   Returns the definitions plus the (name, schema) list of bottom relations
   the caller must declare (empty). *)
let to_constructors (schema_of : string -> Schema.t) (program : program) =
  check_safe program;
  let idb = idb_preds program in
  let bottom p = "__bottom_" ^ p in
  let range_of_pred p =
    if SS.mem p idb then
      Ast.Construct (Ast.Rel (bottom p), p, [])
    else Ast.Rel p
  in
  let branch_of_rule (r : rule) =
    if r.body = [] then
      unsupported
        "ground fact rule %a: facts belong in the EDB, not the program"
        pp_rule r;
    (* binder per positive atom; var bindings collected left to right *)
    let positives =
      List.filter_map
        (function
          | Pos a -> Some a
          | Neg _ -> unsupported "negation not supported in to_constructors"
          | Test _ -> None)
        r.body
    in
    let tests =
      List.filter_map
        (function
          | Test (op, a, b) -> Some (op, a, b)
          | Pos _ -> None
          | Neg _ -> None)
        r.body
    in
    let binders =
      List.mapi (fun i a -> (Fmt.str "b%d" i, a)) positives
    in
    (* first binding of each variable: var -> Ast term *)
    let binding = Hashtbl.create 16 in
    let constraints = ref [] in
    List.iter
      (fun (bv, (a : atom)) ->
        let schema = schema_of a.pred in
        List.iteri
          (fun i arg ->
            let here = Ast.Field (bv, Schema.attr_name schema i) in
            match arg with
            | Const c -> constraints := Ast.eq here (Ast.Const c) :: !constraints
            | Binop _ ->
              unsupported "computed term in body atom argument of %a" pp_atom a
            | Var v -> (
              match Hashtbl.find_opt binding v with
              | None -> Hashtbl.replace binding v here
              | Some t -> constraints := Ast.eq here t :: !constraints))
          a.args)
      binders;
    let rec term_of = function
      | Const c -> Ast.Const c
      | Binop (op, a, b) -> Ast.Binop (op, term_of a, term_of b)
      | Var v -> (
        match Hashtbl.find_opt binding v with
        | Some t -> t
        | None -> unsupported "unsafe rule: unbound variable %s" v)
    in
    List.iter
      (fun (op, a, b) ->
        constraints := Ast.Cmp (op, term_of a, term_of b) :: !constraints)
      tests;
    {
      Ast.binders =
        List.map (fun (bv, (a : atom)) -> (bv, range_of_pred a.pred)) binders;
      target = List.map term_of r.head.args;
      where = Ast.conj_list (List.rev !constraints);
    }
  in
  let defs =
    List.map
      (fun p ->
        let schema = schema_of p in
        let branches =
          List.filter_map
            (fun r ->
              if String.equal r.head.pred p then Some (branch_of_rule r)
              else None)
            program
        in
        {
          Defs.con_name = p;
          con_formal = "__Bottom";
          con_formal_schema = schema;
          con_params = [];
          con_result = schema;
          con_agg = None;
          con_body = branches;
        })
      (SS.elements idb)
  in
  let bottoms = List.map (fun p -> (bottom p, schema_of p)) (SS.elements idb) in
  (defs, bottoms)
