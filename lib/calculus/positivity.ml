(* The positivity constraint of paper §3.3.

   Definitions (verbatim from the paper):
   - a name appears under ALL if the expression is
     [ALL r IN exp (p)] and the name appears in [exp] — names appearing
     only in [p] are NOT under that ALL;
   - a name appears under NOT if it appears in a negated factor;
   - an expression [f(Rel_1, ..., Rel_n)] satisfies the positivity
     constraint if every occurrence of each [Rel_i] appears under an even
     total number of negations and universal quantifiers.

   The DBPL compiler accepts only constructor systems whose recursive
   applications satisfy positivity; by the §3.3 lemma such systems are
   monotonic, so the §3.2 least fixpoint exists and is reached in finitely
   many steps. *)

open Ast

type target =
  | Rel_name of string (* occurrence of a named relation *)
  | App of string (* occurrence of a constructor application *)

type occurrence = {
  occ_target : target;
  occ_depth : int; (* total number of enclosing NOTs and ALL-ranges *)
}

let occurrences =
  {
    Morph.skip with
    range =
      (fun depth acc -> function
        | Rel n -> { occ_target = Rel_name n; occ_depth = depth } :: acc
        | Construct (_, c, _) -> { occ_target = App c; occ_depth = depth } :: acc
        | Select _ | Comp _ -> acc);
  }

let occurrences_formula f = List.rev (Morph.fold_formula occurrences [] f)

let occurrences_branches bs =
  List.rev (List.fold_left (Morph.fold_branch occurrences) [] bs)

(* A formula/expression is positive in [name] if every occurrence of that
   relation name has even depth. *)
let positive_in_formula f name =
  List.for_all
    (fun o -> o.occ_target <> Rel_name name || o.occ_depth mod 2 = 0)
    (occurrences_formula f)

(* ------------------------------------------------------------------ *)
(* Checking a constructor system *)

type violation = {
  v_constructor : string; (* the definition containing the occurrence *)
  v_occurrence : string; (* recursive application (or name) at fault  *)
  v_depth : int;
}

let pp_violation ppf v =
  Fmt.pf ppf
    "constructor %s: recursive occurrence of %s under %d NOT/ALL(s) (odd)"
    v.v_constructor v.v_occurrence v.v_depth

(* Check that every recursive application inside the given (mutually
   recursive) system of definitions satisfies positivity.  [defs] is the
   full system; occurrences of constructors outside the system are
   applications of already-checked, fully-computable relations and are
   exempt (they behave as constants during this system's iteration). *)
let check_system (defs : Defs.constructor_def list) =
  let in_system c =
    List.exists (fun (d : Defs.constructor_def) -> d.con_name = c) defs
  in
  let violations =
    List.concat_map
      (fun (d : Defs.constructor_def) ->
        List.filter_map
          (fun o ->
            match o.occ_target with
            | App c when in_system c && o.occ_depth mod 2 <> 0 ->
              Some
                {
                  v_constructor = d.con_name;
                  v_occurrence = c;
                  v_depth = o.occ_depth;
                }
            | App _ | Rel_name _ -> None)
          (occurrences_branches d.con_body))
      defs
  in
  if violations = [] then Ok () else Error violations

(* ------------------------------------------------------------------ *)
(* Whole-program check: partition constructors into strongly connected
   components of their application-dependency graph (Tarjan) and apply the
   positivity check to each component separately, so that a *non-recursive*
   use of another, independently computable constructor under NOT/ALL
   remains legal (it acts as a constant during this system's iteration). *)

let dependencies (d : Defs.constructor_def) =
  List.filter_map
    (fun o ->
      match o.occ_target with
      | App c -> Some c
      | Rel_name _ -> None)
    (occurrences_branches d.con_body)

(* Tarjan's algorithm over string nodes, shared with the Datalog
   predicate graph ([Stratify.sccs]).  Components come out in emission
   order: each one after every component reachable from it. *)
let tarjan ~roots ~succs =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let next = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !next;
    Hashtbl.replace lowlink v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if String.equal w v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) roots;
  List.rev !components

let sccs (defs : Defs.constructor_def list) =
  let find name =
    List.find_opt (fun (d : Defs.constructor_def) -> d.con_name = name) defs
  in
  let succs v =
    (* unknown constructors are skipped: typechecking reports them *)
    List.filter
      (fun w -> Option.is_some (find w))
      (dependencies (Option.get (find v)))
  in
  List.map (List.filter_map find)
    (tarjan
       ~roots:(List.map (fun (d : Defs.constructor_def) -> d.con_name) defs)
       ~succs)

(* ------------------------------------------------------------------ *)
(* Aggregate admission (define time).

   COUNT/SUM are only exact at fixpoint — a partial count is not a count —
   so they are admitted only outside recursive components.  MIN/MAX may
   run inside a recursive fixpoint (one refinable bound per group) under
   the premappability condition [Zaniolo et al.]: every use of a
   recursive component's accumulated value must tolerate overestimates,
   i.e. the aggregated target term is monotone non-decreasing in each
   recursive value field, no group/discriminator target depends on one,
   and where-clause tests on one are closed under improvement (downward
   for MIN, upward for MAX).  Violations raise the typed
   {!Dc_agg.Agg.Inadmissible} error. *)

module Agg = Dc_agg.Agg

let check_aggregates (defs : Defs.constructor_def list) =
  List.iter
    (fun (comp : Defs.constructor_def list) ->
      let in_comp c = List.exists (fun d -> d.Defs.con_name = c) comp in
      let recursive =
        match comp with
        | [ d ] -> List.mem d.Defs.con_name (dependencies d)
        | _ -> true
      in
      let find c = List.find_opt (fun d -> d.Defs.con_name = c) defs in
      List.iter
        (fun (d : Defs.constructor_def) ->
          match d.con_agg with
          | None -> ()
          | Some spec ->
            if not recursive then ()
            else if not (Agg.premappable spec.op) then
              Agg.inadmissible d.con_name
                "recursive through its own %s aggregate — a partial %s is \
                 not a %s; break the cycle or use MIN/MAX"
                (Agg.op_name spec.op) (Agg.op_name spec.op)
                (Agg.op_name spec.op)
            else
              (* premappability: per branch, locate binders ranging over
                 this component and the attribute carrying their
                 accumulated value *)
              List.iter
                (fun (b : Ast.branch) ->
                  let rec_value_fields =
                    List.filter_map
                      (fun (v, r) ->
                        match r with
                        | Ast.Construct (_, c, _) when in_comp c -> (
                          match find c with
                          | Some dc ->
                            let res = dc.Defs.con_result in
                            Some
                              (v,
                               Dc_relation.Schema.attr_name res
                                 (Dc_relation.Schema.arity res - 1))
                          | None -> None)
                        | _ -> None)
                      b.binders
                  in
                  if rec_value_fields <> [] then begin
                    let is_rv v a =
                      List.exists
                        (fun (v', a') -> v = v' && a = a')
                        rec_value_fields
                    in
                    let bound_read =
                      {
                        Morph.skip with
                        term =
                          (fun _ found -> function
                            | Ast.Field (v, a) -> found || is_rv v a
                            | _ -> found);
                      }
                    in
                    let mentions t = Morph.fold_term bound_read false t in
                    (* monotone non-decreasing in the recursive values *)
                    let rec monotone = function
                      | Ast.Field _ | Ast.Const _ | Ast.Param _ -> true
                      | Ast.Binop (Ast.Add, x, y) -> monotone x && monotone y
                      | Ast.Binop (Ast.Sub, x, y) ->
                        monotone x && not (mentions y)
                      | Ast.Binop (Ast.Mul, x, y) ->
                        not (mentions x) && not (mentions y)
                    in
                    List.iteri
                      (fun i t ->
                        if i = spec.value then begin
                          if not (monotone t) then
                            Agg.inadmissible d.con_name
                              "the %s target %a is not monotone in the \
                               recursive bound (improvements could not \
                               propagate)"
                              (Agg.op_name spec.op) Ast.pp_term t
                        end
                        else if mentions t then
                          Agg.inadmissible d.con_name
                            "target %a places a recursive bound outside \
                             the aggregated column"
                            Ast.pp_term t)
                      b.target;
                    let ok_cmp op =
                      match (spec.op, (op : Ast.cmpop)) with
                      | Agg.Min, (Ast.Lt | Ast.Le) -> true
                      | Agg.Max, (Ast.Gt | Ast.Ge) -> true
                      | _ -> false
                    in
                    let flip = function
                      | Ast.Lt -> Ast.Gt
                      | Ast.Le -> Ast.Ge
                      | Ast.Gt -> Ast.Lt
                      | Ast.Ge -> Ast.Le
                      | (Ast.Eq | Ast.Ne) as o -> o
                    in
                    let formula_mentions f =
                      Morph.fold_formula bound_read false f
                    in
                    List.iter
                      (fun conj ->
                        if formula_mentions conj then
                          match conj with
                          | Ast.Cmp (op, x, y)
                            when mentions x && not (mentions y)
                                 && ok_cmp op ->
                            ()
                          | Ast.Cmp (op, x, y)
                            when mentions y && not (mentions x)
                                 && ok_cmp (flip op) ->
                            ()
                          | conj ->
                            Agg.inadmissible d.con_name
                              "condition %a tests a recursive %s bound in \
                               a way not closed under improvement"
                              Ast.pp_formula conj (Agg.op_name spec.op))
                      (Ast.conjuncts b.where)
                  end)
                d.con_body)
        comp)
    (sccs defs)

(* Per-SCC positivity for a whole program of constructor definitions. *)
let check_program defs =
  let violations =
    List.concat_map
      (fun comp ->
        match check_system comp with
        | Ok () -> []
        | Error vs -> vs)
      (sccs defs)
  in
  if violations = [] then Ok () else Error violations
