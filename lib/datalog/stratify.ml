(* Stratification of Datalog programs with negation.

   Builds the predicate dependency graph (positive and negative edges) and
   assigns each IDB predicate a stratum such that positive dependencies are
   non-decreasing and negative dependencies strictly increase.  Programs
   with a negative cycle are rejected — they correspond exactly to the
   constructor definitions the paper's positivity constraint rules out
   (§3.3). *)

open Syntax

module SM = Map.Make (String)
module SS = Syntax.SS

exception Not_stratifiable of string

(* Aggregate-aware stratification.  [aggs] maps an IDB predicate to the
   aggregate applied to its rule emissions.  The bump discipline extends
   Ullman's relaxation:

   - COUNT/SUM results are only meaningful once their defining stratum has
     reached fixpoint (a partial count is not a count), so any consumer
     sits strictly above — which also makes recursion through COUNT/SUM
     diverge into [Not_stratifiable], the desired rejection;
   - MIN/MAX under the premappability condition tolerate overestimates
     (every improvement propagates and displaces stale bounds by
     subsumption), so MIN/MAX heads may consume MIN/MAX predicates in the
     same stratum — recursive shortest-path stays in one layer — while
     non-aggregated consumers still wait for the final bounds above. *)

(* stratum of each IDB predicate, by iterated relaxation (Ullman's
   algorithm); raises if a stratum exceeds the predicate count. *)
let strata ?(aggs = []) (program : program) =
  let agg_of p = List.assoc_opt p aggs in
  let is_exact p =
    (* aggregated, and only exact at fixpoint (not premappable) *)
    match agg_of p with
    | Some (s : Dc_agg.Agg.spec) -> not (Dc_agg.Agg.premappable s.op)
    | None -> false
  in
  let is_bound p =
    (* aggregated with a refinable per-group bound (MIN/MAX) *)
    match agg_of p with
    | Some (s : Dc_agg.Agg.spec) -> Dc_agg.Agg.premappable s.op
    | None -> false
  in
  let idb = idb_preds program in
  let npreds = SS.cardinal idb in
  let stratum = ref (SS.fold (fun p m -> SM.add p 0 m) idb SM.empty) in
  let get p = Option.value (SM.find_opt p !stratum) ~default:0 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun rule ->
        let h = rule.head.pred in
        List.iter
          (fun lit ->
            let bump ~why target =
              if get h < target then begin
                if target > npreds then
                  raise
                    (Not_stratifiable
                       (Fmt.str "predicate %s depends %s (through a cycle)" h
                          why));
                stratum := SM.add h target !stratum;
                changed := true
              end
            in
            match lit with
            | Pos a when SS.mem a.pred idb ->
              if is_exact a.pred then
                bump
                  ~why:
                    (Fmt.str
                       "on the %s aggregate %s, which is only exact at \
                        fixpoint"
                       (match agg_of a.pred with
                       | Some s -> Dc_agg.Agg.op_name s.op
                       | None -> assert false)
                       a.pred)
                  (get a.pred + 1)
              else if is_bound a.pred && not (is_bound h) then
                bump
                  ~why:
                    (Fmt.str "on the final bounds of the aggregate %s" a.pred)
                  (get a.pred + 1)
              else bump ~why:"positively on itself" (get a.pred)
            | Neg a when SS.mem a.pred idb ->
              bump ~why:"negatively on itself" (get a.pred + 1)
            | Pos _ | Neg _ | Test _ -> ())
          rule.body)
      program
  done;
  !stratum

(* Rules grouped by the stratum of their head predicate, lowest first. *)
let layers ?aggs program =
  let strata = strata ?aggs program in
  let get p = Option.value (SM.find_opt p strata) ~default:0 in
  let max_stratum = SM.fold (fun _ s acc -> max s acc) strata 0 in
  List.init (max_stratum + 1) (fun i ->
      List.filter (fun r -> get r.head.pred = i) program)
  |> List.filter (fun l -> l <> [])

let is_stratifiable program =
  match strata program with
  | _ -> true
  | exception Not_stratifiable _ -> false

(* Strongly connected components of the positive dependency graph over
   IDB predicates, in topological (dependencies-first) order — the unit
   of work for incremental maintenance, which runs DRed only on the SCCs
   that are actually recursive and a cheaper counting pass elsewhere. *)
let sccs (program : program) =
  let idb = idb_preds program in
  let succs =
    List.fold_left
      (fun m rule ->
        let h = rule.head.pred in
        List.fold_left
          (fun m lit ->
            match lit with
            | Pos a when SS.mem a.pred idb ->
              (* edge body-pred → head-pred *)
              let old = Option.value (SM.find_opt a.pred m) ~default:SS.empty in
              SM.add a.pred (SS.add h old) m
            | Pos _ | Neg _ | Test _ -> m)
          m rule.body)
      (SS.fold (fun p m -> SM.add p SS.empty m) idb SM.empty)
      program
  in
  (* Tarjan emits each SCC after all SCCs reachable from it; with edges
     pointing body → head, the reversed emission list is
     dependencies-first. *)
  List.rev
    (Dc_calculus.Positivity.tarjan ~roots:(SS.elements idb) ~succs:(fun v ->
         SS.elements (Option.value (SM.find_opt v succs) ~default:SS.empty)))

(* Is the SCC [preds] recursive, i.e. does some rule with a head in the
   component also consult the component in a positive body atom?  A
   singleton without a self-loop is not. *)
let recursive program preds =
  let inside = SS.of_list preds in
  List.exists
    (fun rule ->
      SS.mem rule.head.pred inside
      && List.exists
           (function
             | Pos (a : atom) -> SS.mem a.pred inside
             | Neg _ | Test _ -> false)
           rule.body)
    program
