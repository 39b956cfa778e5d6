(* Free-variable and constructor-application analyses over the calculus
   AST, as folds ({!Morph}).

   Used by the typechecker, the join planner in {!Eval} (which needs to know
   when a filter becomes evaluable), and the compilation graphs of
   [Dc_compile]. *)

module S = Morph.S

open Ast

let free =
  {
    Morph.skip with
    term =
      (fun bound acc -> function
        | Field (v, _) when not (S.mem v bound) -> S.add v acc
        | _ -> acc);
    var = (fun bound acc v -> if S.mem v bound then acc else S.add v acc);
  }

let free_vars_formula f = Morph.fold_formula free S.empty f
let free_vars_term t = Morph.fold_term free S.empty t
let free_vars_range r = Morph.fold_range free S.empty r

(* Constructor applications: every [Construct] occurrence in an AST
   fragment, with its base range and arguments. *)
type app = { app_con : string; app_base : range; app_args : arg list }

let apps =
  {
    Morph.skip with
    range =
      (fun _ acc -> function
        | Construct (r, c, args) -> { app_con = c; app_base = r; app_args = args } :: acc
        | _ -> acc);
  }

let apps_of_range r = List.rev (Morph.fold_range apps [] r)
