(* Incremental view maintenance for materialized constructor extents.

   A materialized view caches the least fixpoint of one constructor
   application Base{c(args)} and keeps it correct across base-relation
   INSERT/DELETE without refixpointing from scratch.

   When the planner's recogniser ([Dc_compile.Closure]) proves the
   application's system regular and every label names a relation once
   the formal and parameters are substituted, the view is a [Traversal]:
   its store holds the root's pairs alone, computed by one [Reach]
   traversal from every source.  An update finds the affected sources —
   the tail of every changed label edge and every node that reaches one
   over some label's edges — traverses from them again over the
   post-update labels, and merges each one's answers with its old rows:
   one rule for INSERT and DELETE, for cycles and for every automaton.
   The view keeps its numbered label graph between updates and revises
   it by the changed edges, numbering again only when a new node comes
   in.

   Every other view caches the §3.4 translation as a Datalog fact store.
   Its maintenance plan is chosen per strongly connected component of
   the translated program's positive dependency graph, processed in
   topological order:

   - non-recursive components use the counting algorithm [GuMS 93]: the
     view tracks, per derived tuple, the number of rule derivations
     currently producing it.  The count adjustment under an update is the
     telescoped product difference — per rule and positive position i,
     one variant reading post-update stores left of i ("⊕pred"), the
     delta at i ("Δpred") and pre-update stores right of i — run once
     against the insertion delta (+1 per emission) and once against the
     deletion delta (−1).  A tuple leaves the extent exactly when its
     count reaches zero and enters when it rises from zero.

   - recursive components use DRed [GuMS 93] with derivation counts in
     place of the rederive search (DRed^c, Hu, Motik & Horrocks, AAAI
     2018): over-delete everything derivable from a deleted tuple
     (semi-naive rounds of the same telescoped variants), then rederive
     survivors, then propagate insertions semi-naively.  Every phase
     adjusts the count of each one-step rule instance it gains or loses,
     so after over-deletion a casualty whose count is still positive has
     a derivation from surviving facts — the rederive step is a count
     check, and survivors are propagated in case they resurrect further
     casualties.  Counts never decide deletion on their own: a cycle can
     keep a tuple's count positive through derivations that depend on the
     deleted tuple itself, and over-deletion is what breaks such cycles.

   - non-recursive aggregated predicates (MIN/MAX/COUNT/SUM heads) keep
     derivation counts over the *raw* contributions — the tuples the
     rules emit before the group projection — and maintain one result row
     per group from the raw deltas: COUNT adjusts the count, SUM adds on
     pure insertions, MIN/MAX fold insertions into the current bound.  A
     deletion that hits the bound (or any SUM deletion) is a bound
     violation: the group is recomputed from its surviving raw
     contributions ([Agg.aggregate] over the support table).  The net
     result-row delta then propagates to downstream components exactly
     like any other predicate's.

   Programs with stratified negation or recursive (premapped MIN/MAX)
   aggregates fall back to a full recompute per update (still through the
   maintained store, so reads stay consistent); updates arriving while
   maintenance is off just mark the view stale and the next serve
   refreshes it.

   All phases run under the database's resource governor; the driver in
   [Database] opens a transaction on each view before propagating and
   rolls it back on any failure (the view's store is a persistent value,
   its derivation counts an undo log), so an aborted maintenance step
   leaves the pre-update snapshot.  A re-traversal ticks the guard on
   every row it emits, under the label [closure <c>], as the closure
   operator does.  Every phase, seeding and the net-delta commits
   included, is timed into the update's report. *)

open Dc_relation
open Dc_calculus
open Dc_core
open Dc_datalog
module Ir = Dc_exec.Ir
module Guard = Dc_guard.Guard
module Obs = Dc_obs.Obs
module Agg = Dc_agg.Agg
module TS = Facts.TS
module SS = Syntax.SS

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Registry instruments *)

let m_updates = lazy (Obs.Counter.make "dc_ivm_updates_total")
let m_maintain_ms = lazy (Obs.Histogram.make "dc_ivm_maintain_ms")
let m_delta_in = lazy (Obs.Histogram.make "dc_ivm_delta_in")
let m_inserted = lazy (Obs.Counter.make "dc_ivm_inserted_total")
let m_deleted = lazy (Obs.Counter.make "dc_ivm_deleted_total")
let m_overdeleted = lazy (Obs.Counter.make "dc_ivm_overdeleted_total")
let m_rederived = lazy (Obs.Counter.make "dc_ivm_rederived_total")
let m_rounds = lazy (Obs.Counter.make "dc_ivm_rounds_total")
let m_refresh = lazy (Obs.Counter.make "dc_ivm_refresh_total")
let g_views = lazy (Obs.Gauge.make "dc_ivm_views")

(* ------------------------------------------------------------------ *)
(* Maintenance reports (EXPLAIN ANALYZE on an update) *)

type phase = {
  ph_label : string;
  ph_tuples : int;
  ph_ms : float;
}

type report = {
  rp_view : string;
  rp_mode : string; (* "incremental" | "traversal" | "recompute" | "stale" *)
  rp_base : (string * int * int) list; (* relation, added, removed *)
  mutable rp_phases : phase list; (* latest first while building *)
  mutable rp_plus : int; (* net growth of the served extent *)
  mutable rp_minus : int;
  mutable rp_ms : float;
}

(* Only the most recent reports are retained — long update streams must
   not accumulate per-update diagnostics without bound. *)
let max_reports = 16
let reports_acc : report list ref = ref []
let n_reports = ref 0

let push_report rp =
  reports_acc := rp :: !reports_acc;
  incr n_reports;
  if !n_reports > max_reports then begin
    reports_acc := List.filteri (fun i _ -> i < max_reports) !reports_acc;
    n_reports := max_reports
  end

let reset_reports () =
  reports_acc := [];
  n_reports := 0

let reports () = List.rev !reports_acc

let pp_report ppf rp =
  Fmt.pf ppf "@[<v>view %s (%s): %a; Δ⁺=%d Δ⁻=%d; %.2f ms" rp.rp_view
    rp.rp_mode
    Fmt.(
      list ~sep:(any ", ") (fun ppf (r, a, d) -> pf ppf "%s +%d/-%d" r a d))
    rp.rp_base rp.rp_plus rp.rp_minus rp.rp_ms;
  List.iter
    (fun ph ->
      Fmt.pf ppf "@,  %-28s %6d tuples %8.2f ms" ph.ph_label ph.ph_tuples
        ph.ph_ms)
    (List.rev rp.rp_phases);
  Fmt.pf ppf "@]"

let timed rp label f =
  let t0 = Obs.now_ms () in
  let tuples = f () in
  rp.rp_phases <-
    { ph_label = label; ph_tuples = tuples; ph_ms = Obs.now_ms () -. t0 }
    :: rp.rp_phases

(* ------------------------------------------------------------------ *)
(* Compiled maintenance plans *)

(* One delta variant of one rule: the positive occurrence at the marked
   position reads a delta, the rest read whatever the phase's context
   maps plain and ⊕ names to. *)
type variant = {
  v_head : string;
  v_delta_pred : string; (* predicate at the delta position *)
  v_pipe : Ir.t;
}

type scc_kind =
  | Counting
  | Dred
  | Agg_counting of Agg.spec

type scc = {
  s_preds : string list;
  s_set : SS.t;
  s_kind : scc_kind;
  s_init : (string * Ir.t) list;
      (* per rule, its plain pipeline and the support table it counts
         into: emissions = one-step derivations, used to (re)build counts
         from a full store *)
  s_variants : variant list;
      (* tri-named: ⊕ left of the delta, plain right of it *)
}

(* A view whose application the recogniser proves regular: its extent is
   the root's relation of the automaton over the label relations. *)
type traversal = {
  tr_automaton : Dc_exec.Reach.automaton;
  tr_labels : string array; (* the relation each label names *)
}

type plan =
  | Incremental of scc list
  | Traversal of traversal
  | Recompute of string (* why the incremental path does not apply *)

type status =
  | Live
  | Stale

type t = {
  db : Database.t;
  name : string; (* instance predicate of the root application *)
  con : string;
  base : string;
  args : Ast.arg list;
  def : Defs.constructor_def;
  program : Syntax.program;
  aggs : (string * Agg.spec) list; (* aggregated instance predicates *)
  query_pred : string;
  depends : string list; (* EDB relations the translated program reads *)
  plan : plan;
  supports : Support.t; (* derivation counts of every component *)
  mutable store : Facts.t; (* EDB ∪ IDB at the last synchronized state *)
  mutable status : status;
  mutable counted : bool;
      (* the recursive components' counts are built ([ensure_counts]) *)
  mutable graph : Dc_exec.Reach.graph option;
      (* a traversal's label graph at the last synchronized state, once
         built *)
}

let name v = v.name
let constructor v = v.con
let depends v = v.depends
let is_stale v = v.status = Stale

(* A view is what its maintainer maintains: the database's maintainer
   list is the registry, journaled by the commit like the rest of its
   state, and the durability layer reads the concrete views back from it
   (to checkpoint their stores and derivation counts). *)
type Database.view += View of t

let views db =
  List.filter_map (function View v -> Some v | _ -> None) (Database.views db)

let plan_kind v =
  match v.plan with
  | Incremental sccs ->
    Fmt.str "incremental (%s)"
      (String.concat ", "
         (List.map
            (fun s ->
              Fmt.str "%s:%s"
                (String.concat "," s.s_preds)
                (match s.s_kind with
                | Counting -> "counting"
                | Dred -> "dred"
                | Agg_counting spec ->
                  Fmt.str "agg-counting %a" Agg.pp_op spec.op))
            sccs))
  | Traversal tr ->
    Fmt.str "traversal (%s over %s)" v.query_pred
      (String.concat ", " (Array.to_list tr.tr_labels))
  | Recompute why -> Fmt.str "recompute (%s)" why

(* ------------------------------------------------------------------ *)
(* Plan compilation *)

let positive_atoms (r : Syntax.rule) =
  List.filter_map
    (function
      | Syntax.Pos a -> Some a
      | Syntax.Neg _ | Syntax.Test _ -> None)
    r.body

let rule_label r = lazy (Fmt.str "%a" Syntax.pp_rule r)

(* The telescoped delta variants of [rule], one per positive position:
   ⊕ names left of the delta, the delta at it, plain names right of it. *)
let tri_variants rule =
  let atoms = Array.of_list (positive_atoms rule) in
  List.map
    (fun dpos ->
      {
        v_head = rule.Syntax.head.pred;
        v_delta_pred = atoms.(dpos).Syntax.pred;
        v_pipe =
          (Engine.compile_variant ~delta_pos:dpos
             ~names:(fun i (a : Syntax.atom) ->
               if i < dpos then Engine.post_name a.pred
               else if i = dpos then Engine.delta_name a.pred
               else a.pred)
             ~label:(rule_label rule) rule)
            .Engine.pipeline;
      })
    (Engine.delta_positions ~member:(fun _ -> true) rule)

(* The support-table name of an aggregated predicate's raw contributions
   — disjoint from every real predicate ('!' cannot appear in one). *)
let raw_name pred = pred ^ "!raw"

let compile_plan ?(aggs = []) (program : Syntax.program) =
  let has_neg =
    List.exists
      (fun (r : Syntax.rule) ->
        List.exists
          (function
            | Syntax.Neg _ -> true
            | Syntax.Pos _ | Syntax.Test _ -> false)
          r.body)
      program
  in
  let rec term_has_binop = function
    | Syntax.Binop _ -> true
    | Syntax.Var _ | Syntax.Const _ -> false
  and lit_has_binop = function
    | Syntax.Pos a | Syntax.Neg a -> List.exists term_has_binop a.Syntax.args
    | Syntax.Test (_, a, b) -> term_has_binop a || term_has_binop b
  in
  (* computed terms are fine inside an aggregated predicate's rules (the
     counting pipelines just evaluate them); anywhere else they stay on
     the recompute path *)
  let has_binop =
    List.exists
      (fun (r : Syntax.rule) ->
        (not (List.mem_assoc r.head.pred aggs))
        && (List.exists term_has_binop r.head.args
           || List.exists lit_has_binop r.body))
      program
  in
  let sccs = Stratify.sccs program in
  let recursive_agg =
    List.exists
      (fun preds ->
        Stratify.recursive program preds
        && List.exists (fun p -> List.mem_assoc p aggs) preds)
      sccs
  in
  if has_neg then Recompute "stratified negation"
  else if recursive_agg then Recompute "recursive aggregate (per-group bounds)"
  else if has_binop then Recompute "computed head terms"
  else
    Incremental
      (List.map
         (fun preds ->
           let s_set = SS.of_list preds in
           let rules =
             List.filter
               (fun (r : Syntax.rule) -> SS.mem r.head.pred s_set)
               program
           in
           let s_kind =
             match preds with
             | [ p ] when List.mem_assoc p aggs ->
               (* non-recursive aggregated predicate: counting over the
                  raw contributions plus a per-group aggregate layer *)
               Agg_counting (List.assoc p aggs)
             | _ when Stratify.recursive program preds -> Dred
             | _ -> Counting
           in
           let table (r : Syntax.rule) =
             match s_kind with
             | Agg_counting _ -> raw_name r.head.pred
             | Counting | Dred -> r.head.pred
           in
           {
             s_preds = preds;
             s_set;
             s_kind;
             s_init =
               List.map
                 (fun (r : Syntax.rule) ->
                   ( table r,
                     (Engine.compile_variant
                        ~names:(fun _ (a : Syntax.atom) -> a.pred)
                        ~label:(rule_label r) r)
                       .Engine.pipeline ))
                 rules;
             s_variants = List.concat_map tri_variants rules;
           })
         sccs)

(* The traversal plan of [Base{def(args)}], when the recogniser proves
   its system regular and every label names a relation once the formal
   and the parameters are replaced by [base] and [args]. *)
let traversal_of db (def : Defs.constructor_def) base args =
  match Dc_compile.Closure.recognise (Database.typecheck_env db) def with
  | Dc_compile.Closure.Declined _ -> None
  | Regular { automaton; labels } ->
    let bound =
      (def.con_formal, Some base)
      :: List.map2
           (fun p a ->
             ( (match p with Defs.Scalar_param (n, _) | Defs.Rel_param (n, _) -> n),
               match a with Ast.Arg_range (Ast.Rel r) -> Some r | _ -> None ))
           def.con_params args
    in
    let relation = function
      | Ast.Rel n -> Option.value (List.assoc_opt n bound) ~default:(Some n)
      | Ast.Select _ | Ast.Construct _ | Ast.Comp _ -> None
    in
    let names = Array.map relation labels in
    if Array.for_all Option.is_some names then
      Some { tr_automaton = automaton; tr_labels = Array.map Option.get names }
    else None

let plan_of db def base args ~aggs program =
  match traversal_of db def base args with
  | Some tr -> Traversal tr
  | None -> compile_plan ~aggs program

(* ------------------------------------------------------------------ *)
(* Traversal (a regular view's refresh and maintenance) *)

(* The label relations' current edges, numbered for [Reach]. *)
let label_graph view tr =
  Dc_exec.Reach.graph
    (Array.map
       (fun r ->
         let rel = Database.get view.db r in
         fun f -> Relation.iter f rel)
       tr.tr_labels)

(* Each row a traversal emits ticks the guard, as an operator row would. *)
let closure_label view = lazy ("closure " ^ view.con)

(* ------------------------------------------------------------------ *)
(* Refresh (from-scratch synchronization) *)

(* Count one component's one-step derivations over the view's store into
   fresh tables; returns how many there are.  The counts are keyed by the
   store's own tuples, not the ones the pipelines built. *)
let count_scc view s =
  let ctx = Engine.store_ctx view.store in
  let n = ref 0 in
  List.iter
    (fun table ->
      Support.build view.supports table
        ~size:(Facts.cardinal view.store table)
        (fun add ->
          List.iter
            (fun (table', pipe) ->
              if String.equal table table' then
                Ir.run ctx pipe (fun t ->
                    incr n;
                    add t))
            s.s_init))
    (List.sort_uniq String.compare (List.map fst s.s_init));
  List.iter
    (fun p -> Support.share view.supports p (Facts.find view.store p))
    s.s_preds;
  !n

let is_dred s = match s.s_kind with Dred -> true | Counting | Agg_counting _ -> false

(* Whether the plan's recursive counts are built: a traversal keeps none. *)
let counted_from_start = function
  | Incremental sccs -> not (List.exists is_dred sccs)
  | Traversal _ -> false
  | Recompute _ -> true

(* The non-recursive components' counts are built with the store; the
   recursive ones wait for [ensure_counts]. *)
let init_supports view =
  Support.reset view.supports;
  view.counted <- counted_from_start view.plan;
  match view.plan with
  | Recompute _ | Traversal _ -> ()
  | Incremental sccs ->
    List.iter (fun s -> if not (is_dred s) then ignore (count_scc view s)) sccs

(* Build the recursive components' counts over the synchronized store,
   once per materialization, refresh or restore: the first incremental
   update runs the pass before it maintains them, so MATERIALIZE and
   restore do not pay for it.  Returns the derivations counted. *)
let ensure_counts view =
  match view.plan with
  | Incremental sccs when not view.counted ->
    let n =
      List.fold_left
        (fun n s ->
          if is_dred s then n + count_scc view s else n)
        0 sccs
    in
    view.counted <- true;
    n
  | Incremental _ | Traversal _ | Recompute _ -> 0

(* Rows enter the view's extent at a refresh or restore (all of them) and
   at an update (the added ones): each is checked there, once, with the
   well-typedness [Relation.add_unchecked] asserts, so serving a version
   wraps the store without a pass over it. *)
let assert_typed view rows =
  assert (TS.for_all (Tuple.well_typed view.def.Defs.con_result) rows)

let refresh view =
  let guard = Guard.of_limits (Database.limits view.db) in
  (match view.plan with
  | Traversal tr ->
    let g = label_graph view tr and label = closure_label view and rows = ref [] in
    let nodes = Dc_exec.Reach.nodes g in
    ignore
      (Dc_exec.Reach.run g tr.tr_automaton Dc_exec.Reach.Every (fun a block ->
           Guard.ticks guard label (Array.length block);
           Array.iter (fun b -> rows := Tuple.make2 nodes.(a) nodes.(b) :: !rows) block));
    view.store <-
      Facts.singleton_set view.query_pred
        (Relation.sorted_set (Array.of_list (List.rev !rows)));
    view.graph <- Some g
  | Incremental _ | Recompute _ ->
    view.store <-
      Seminaive.run ~guard ~aggs:view.aggs view.program
        (Translate.edb (fun p -> Some (Database.get view.db p)) view.program));
  assert_typed view (Facts.find view.store view.query_pred);
  init_supports view;
  Facts.drop_prefix_paths view.store;
  view.status <- Live;
  if Obs.on () then Obs.Counter.inc (Lazy.force m_refresh)

(* ------------------------------------------------------------------ *)
(* The incremental update *)

(* Per-update driver state: [pre] is the synchronized store before the
   update; [post] applies every net delta committed so far;
   [dplus]/[dminus] accumulate the net per-predicate deltas, EDB first,
   then each component in topological order — so a component always sees
   finished pre/post states and deltas for everything below it.  [post]
   is one chain of store steps from [pre] (see [Facts]): it takes over
   [pre]'s warm indexes and becomes the view's next store. *)
type update_state = {
  pre : Facts.t;
  mutable post : Facts.t;
  mutable dplus : Facts.t;
  mutable dminus : Facts.t;
  guard : Guard.t;
  rp : report;
}

let round guard =
  Guard.round guard ~site:"ivm.round";
  if Obs.on () then Obs.Counter.inc (Lazy.force m_rounds)

(* Run the variants whose delta predicate is non-empty in [delta]. *)
let run_variants st ~ctx ~delta variants emit =
  List.iter
    (fun v ->
      if Facts.cardinal delta v.v_delta_pred > 0 then
        Ir.run ~guard:st.guard ctx v.v_pipe (emit v.v_head))
    variants

(* Record a predicate's net delta in [dplus]/[dminus] ... *)
let record_delta st pred ~net_plus ~net_minus =
  st.dminus <- Facts.add_set st.dminus pred net_minus;
  st.dplus <- Facts.add_set st.dplus pred net_plus

(* ... and apply it to [post]. *)
let commit_pred st pred ~net_plus ~net_minus =
  record_delta st pred ~net_plus ~net_minus;
  st.post <-
    Facts.add_set (Facts.remove_set st.post pred net_minus) pred net_plus

(* Counting pass over one non-recursive component: one telescoped run per
   variant and delta sign, then zero-crossings of the adjusted counts
   become the component's net delta. *)
let counting_scc view st s =
  round st.guard;
  let adjust : (string * Tuple.t, int) Hashtbl.t = Hashtbl.create 64 in
  let record sign head t =
    let key = (head, t) in
    Hashtbl.replace adjust key
      (sign + Option.value (Hashtbl.find_opt adjust key) ~default:0)
  in
  timed st.rp
    (Fmt.str "count %s" (String.concat "," s.s_preds))
    (fun () ->
      let signed sign delta =
        run_variants st
          ~ctx:(Engine.tri_ctx ~pre:st.pre ~post:st.post ~delta)
          ~delta s.s_variants (record sign)
      in
      signed 1 st.dplus;
      signed (-1) st.dminus;
      Hashtbl.length adjust);
  timed st.rp
    (Fmt.str "commit %s" (String.concat "," s.s_preds))
    (fun () ->
      let removed = Hashtbl.create 4 and added = Hashtbl.create 4 in
      let bucket tbl pred t =
        Hashtbl.replace tbl pred
          (TS.add t
             (Option.value (Hashtbl.find_opt tbl pred) ~default:TS.empty))
      in
      Hashtbl.iter
        (fun (pred, t) d ->
          if d <> 0 then begin
            let old, now = Support.add view.supports pred t d in
            if now < 0 then
              error "negative derivation count for %s%a (ivm bug)" pred
                Tuple.pp t;
            if old > 0 && now = 0 then bucket removed pred t
            else if old = 0 && now > 0 then bucket added pred t
          end)
        adjust;
      List.fold_left
        (fun n pred ->
          let net_minus =
            Option.value (Hashtbl.find_opt removed pred) ~default:TS.empty
          and net_plus =
            Option.value (Hashtbl.find_opt added pred) ~default:TS.empty
          in
          commit_pred st pred ~net_plus ~net_minus;
          n + TS.cardinal net_plus + TS.cardinal net_minus)
        0 s.s_preds)

(* Aggregate pass over one non-recursive aggregated predicate: the same
   telescoped counting run, but over the *raw* contributions (what the
   rules emit before the group projection), then a per-group maintenance
   layer turns raw deltas into result-row deltas.  COUNT adjusts the
   stored count; SUM adds on pure insertions; MIN/MAX fold insertions
   into the current bound.  A deletion that witnessed the bound (or any
   SUM deletion, where group emptiness is otherwise unknowable) recomputes
   the group from its surviving raw contributions. *)
let agg_scc view st s (spec : Agg.spec) =
  round st.guard;
  let pred = List.hd s.s_preds in
  let rawp = raw_name pred in
  let adjust : (Tuple.t, int) Hashtbl.t = Hashtbl.create 64 in
  let record sign (_ : string) t =
    Hashtbl.replace adjust t
      (sign + Option.value (Hashtbl.find_opt adjust t) ~default:0)
  in
  timed st.rp (Fmt.str "agg count %s" pred) (fun () ->
      let signed sign delta =
        run_variants st
          ~ctx:(Engine.tri_ctx ~pre:st.pre ~post:st.post ~delta)
          ~delta s.s_variants (record sign)
      in
      signed 1 st.dplus;
      signed (-1) st.dminus;
      Hashtbl.length adjust);
  (* group layer: raw deltas -> result-row deltas *)
  timed st.rp (Fmt.str "agg groups %s" pred) (fun () ->
      (* zero-crossings of the raw derivation counts: the distinct raw set *)
      let raw_plus = ref TS.empty and raw_minus = ref TS.empty in
      Hashtbl.iter
        (fun t d ->
          if d <> 0 then begin
            let old_c, now = Support.add view.supports rawp t d in
            if now < 0 then
              error "negative raw derivation count for %s%a (ivm bug)" pred
                Tuple.pp t;
            if old_c > 0 && now = 0 then raw_minus := TS.add t !raw_minus
            else if old_c = 0 && now > 0 then raw_plus := TS.add t !raw_plus
          end)
        adjust;
      let ngroup = List.length spec.group in
      let gkey_raw t = List.map (Tuple.get t) spec.group in
      let gkey_row r = List.init ngroup (Tuple.get r) in
      let old_rows = Hashtbl.create 16 in
      TS.iter
        (fun r -> Hashtbl.replace old_rows (gkey_row r) r)
        (Facts.find st.pre pred);
      let touched : (Value.t list, Tuple.t list ref * Tuple.t list ref) Hashtbl.t
          =
        Hashtbl.create 16
      in
      let touch k =
        match Hashtbl.find_opt touched k with
        | Some e -> e
        | None ->
          let e = (ref [], ref []) in
          Hashtbl.replace touched k e;
          e
      in
      TS.iter (fun t -> let p, _ = touch (gkey_raw t) in p := t :: !p) !raw_plus;
      TS.iter (fun t -> let _, m = touch (gkey_raw t) in m := t :: !m) !raw_minus;
      let rescan : (Value.t list, unit) Hashtbl.t = Hashtbl.create 8 in
      let net_plus = ref TS.empty and net_minus = ref TS.empty in
      let replace old_row new_row =
        match (old_row, new_row) with
        | None, None -> ()
        | Some o, Some n when Tuple.equal o n -> ()
        | o, n ->
          Option.iter (fun r -> net_minus := TS.add r !net_minus) o;
          Option.iter (fun r -> net_plus := TS.add r !net_plus) n
      in
      let one_row = function
        | [ row ] -> Some row
        | [] -> None
        | _ -> error "several result rows for one group of %s (ivm bug)" pred
      in
      let vals ts = List.map (fun t -> Tuple.get t spec.value) ts in
      Hashtbl.iter
        (fun key (plus, minus) ->
          let old_row = Hashtbl.find_opt old_rows key in
          let plus = !plus and minus = !minus in
          match (old_row, spec.op) with
          | None, _ ->
            (* new group: the insertions are its whole raw content *)
            if minus <> [] then
              error "deletion from an absent group of %s (ivm bug)" pred;
            replace None (one_row (Agg.aggregate spec plus))
          | Some o, Agg.Count ->
            let n =
              match Tuple.get o ngroup with
              | Value.Int n -> n
              | v ->
                error "non-integer COUNT %a in %s (ivm bug)" Value.pp v pred
            in
            let n' = n + List.length plus - List.length minus in
            if n' < 0 then error "negative COUNT in %s (ivm bug)" pred;
            replace old_row
              (if n' = 0 then None
               else Some (Tuple.of_list (key @ [ Value.Int n' ])))
          | Some o, Agg.Sum ->
            if minus = [] then
              let s = List.fold_left Value.add (Tuple.get o ngroup) (vals plus) in
              replace old_row (Some (Tuple.of_list (key @ [ s ])))
            else Hashtbl.replace rescan key ()
          | Some o, (Agg.Min | Agg.Max) ->
            let bound = Tuple.get o ngroup in
            if List.exists (fun v -> Value.equal v bound) (vals minus) then
              (* bound violation: a deleted contribution witnessed it *)
              Hashtbl.replace rescan key ()
            else
              let bound' =
                List.fold_left
                  (fun b v -> if Agg.better spec.op v b then v else b)
                  bound (vals plus)
              in
              replace old_row (Some (Tuple.of_list (key @ [ bound' ]))))
        touched;
      if Hashtbl.length rescan > 0 then begin
        (* one pass over the surviving raw contributions, bucketed by
           violated group, then a from-scratch fold per group *)
        let buckets = Hashtbl.create 8 in
        Support.iter_pred view.supports rawp (fun t _ ->
            let k = gkey_raw t in
            if Hashtbl.mem rescan k then
              Hashtbl.replace buckets k
                (t :: Option.value (Hashtbl.find_opt buckets k) ~default:[]));
        Hashtbl.iter
          (fun key () ->
            let raws =
              Option.value (Hashtbl.find_opt buckets key) ~default:[]
            in
            replace (Hashtbl.find_opt old_rows key)
              (one_row (Agg.aggregate spec raws)))
          rescan
      end;
      commit_pred st pred ~net_plus:!net_plus ~net_minus:!net_minus;
      TS.cardinal !net_plus + TS.cardinal !net_minus)

(* [pred] of [store] without the tuples [hide] accepts, and with those of
   [extra] when given.  The states a DRed round reads differ from the
   update's current store by small deltas: wrapping that store keeps its
   warm indexes in use, where a branched copy would build its own. *)
let patched ?hide ?extra store pred =
  let base = Engine.store_extent store pred in
  match (hide, extra) with
  | None, None -> base
  | _ ->
    let keep t = match hide with Some h -> not (h t) | None -> true in
    let more = Option.map (fun d -> Engine.store_extent d pred) extra in
    {
      base with
      Dc_exec.Extent.iter =
        (fun f ->
          base.iter (fun t -> if keep t then f t);
          Option.iter (fun (e : Dc_exec.Extent.t) -> e.iter f) more);
      lookup =
        (fun ps vs ->
          let l = List.filter keep (base.lookup ps vs) in
          match more with Some e -> e.lookup ps vs @ l | None -> l);
      mem =
        (fun t ->
          (keep t && base.mem t)
          || match more with Some e -> e.mem t | None -> false);
    }

(* DRed over one recursive component, its rederive step a count check.

   Each phase runs semi-naive rounds of the telescoped variants: in a
   round with delta Δ, occurrences left of the Δ position read the state
   after the round ("⊕pred"), those right of it the state before
   ("pred"), so each one-step rule instance the round gains or loses is
   met exactly once, and its head's count moves by one.  This component
   lives in [cur], one chain of store steps from [st.post]; a round's
   other state is [cur] filtered by Δ.  Lower predicates read [cur]
   without this update's insertions until the insert phase. *)
let dred_scc view st s =
  let observing = Obs.on () in
  let label phase = Fmt.str "%s %s" phase (String.concat "," s.s_preds) in
  let cur = ref st.post in
  let in_s p = SS.mem p s.s_set in
  let has d p = Facts.cardinal d p > 0 in
  let only_if c f = if c then Some f else None in
  let without d p = patched ?hide:(only_if (has d p) (Facts.mem d p)) !cur p in
  let mid = without st.dplus in
  let seen = List.map (fun p -> (p, Tuple_hset.create ())) s.s_preds in
  (* One phase: rounds from [delta] until one finds nothing fresh.  Every
     emitted instance moves its head's count by [sign]; the heads [fresh]
     accepts, once per round, go to [advance], which applies the round to
     [cur] and returns the next delta. *)
  let phase ~sign ~delta ~before ~after ~fresh ~advance =
    let delta = ref delta and found_total = ref 0 in
    while Facts.total !delta > 0 do
      round st.guard;
      let d = !delta in
      let found = ref [] in
      List.iter (fun (_, h) -> Tuple_hset.clear h) seen;
      let emit head t =
        if snd (Support.add view.supports head t sign) < 0 then
          error "negative derivation count for %s%a (ivm bug)" head Tuple.pp t;
        if fresh d head t && Tuple_hset.add (List.assoc head seen) t then
          found := (head, t) :: !found
      in
      let ctx name =
        match Engine.split_delta name with
        | Some p -> Engine.store_extent ~label:name d p
        | None -> (
          match Engine.split_post name with
          | Some p -> after d p
          | None -> before d name)
      in
      run_variants st ~ctx ~delta:d s.s_variants emit;
      found_total := !found_total + List.length !found;
      delta := advance d !found
    done;
    !found_total
  in
  (* --- over-deletion: [cur] still holds the round's delta, which leaves
     it when the round ends; the lower deletions (the first round's
     delta) are added back to the state before *)
  let overdeleted = ref [] in
  timed st.rp (label "overdelete") (fun () ->
      let n =
        phase ~sign:(-1) ~delta:st.dminus
          ~before:(fun d p ->
            if in_s p then Engine.store_extent !cur p
            else
              patched
                ?hide:(only_if (has st.dplus p) (Facts.mem st.dplus p))
                ?extra:(only_if (has d p) d) !cur p)
          ~after:(fun d p -> if in_s p then without d p else mid p)
          ~fresh:(fun d p t -> Facts.mem !cur p t && not (Facts.mem d p t))
          ~advance:(fun d found ->
            List.iter
              (fun p ->
                if has d p then cur := Facts.remove_set !cur p (Facts.find d p))
              s.s_preds;
            overdeleted := List.rev_append found !overdeleted;
            Facts.of_list found)
      in
      if observing then Obs.Counter.add (Lazy.force m_overdeleted) n;
      n);
  (* --- rederivation: a casualty whose count survived over-deletion has
     a one-step derivation from the surviving facts *)
  let survivors = ref [] in
  timed st.rp (label "rederive") (fun () ->
      survivors :=
        List.filter
          (fun (p, t) -> Support.count view.supports p t > 0)
          !overdeleted;
      let n = List.length !survivors in
      if observing then Obs.Counter.add (Lazy.force m_rederived) n;
      n);
  (* --- propagate survivors: a rederived tuple can resurrect further
     casualties.  Here and in the insert phase [cur] already holds the
     round's delta, which the state before lacks. *)
  let grow found =
    cur := Facts.add_list !cur found;
    Facts.of_list found
  in
  timed st.rp (label "propagate") (fun () ->
      phase ~sign:1 ~delta:(grow !survivors)
        ~before:(fun d p -> if in_s p then without d p else mid p)
        ~after:(fun _ p -> if in_s p then Engine.store_extent !cur p else mid p)
        ~fresh:(fun _ p t -> not (Facts.mem !cur p t))
        ~advance:(fun _ found -> grow found));
  (* --- insertion: semi-naive propagation of the lower components' net
     insertions *)
  let added = ref [] in
  timed st.rp (label "insert") (fun () ->
      phase ~sign:1 ~delta:st.dplus ~before:without
        ~after:(fun _ p -> Engine.store_extent !cur p)
        ~fresh:(fun _ p t -> not (Facts.mem !cur p t))
        ~advance:(fun _ found ->
          added := List.rev_append found !added;
          grow found));
  (* --- commit: what stayed deleted, net of re-insertions (a tuple
     deleted then re-inserted cancels out); [cur] already holds both *)
  timed st.rp (label "commit") (fun () ->
      st.post <- !cur;
      let overdeleted = Facts.of_list !overdeleted
      and added = Facts.of_list !added in
      List.fold_left
        (fun n p ->
          let net_minus =
            TS.filter
              (fun t -> not (Facts.mem !cur p t))
              (Facts.find overdeleted p)
          and net_plus = TS.diff (Facts.find added p) (Facts.find overdeleted p) in
          record_delta st p ~net_plus ~net_minus;
          n + TS.cardinal net_plus + TS.cardinal net_minus)
        0 s.s_preds)

let report view mode updates =
  {
    rp_view = view.name;
    rp_mode = mode;
    rp_base = List.map (fun (r, a, d) -> (r, List.length a, List.length d)) updates;
    rp_phases = [];
    rp_plus = 0;
    rp_minus = 0;
    rp_ms = 0.;
  }

let incremental_update view sccs updates =
  let guard = Guard.of_limits (Database.limits view.db) in
  let rp = report view "incremental" updates in
  let st =
    {
      pre = view.store;
      post = view.store;
      dplus = Facts.empty ();
      dminus = Facts.empty ();
      guard;
      rp;
    }
  in
  if not view.counted then
    timed rp "build counts" (fun () -> ensure_counts view);
  (* seed with the base-relation net deltas *)
  timed rp "seed" (fun () ->
      List.fold_left
        (fun n (rel, add_l, rem_l) ->
          let net_plus = TS.of_list add_l and net_minus = TS.of_list rem_l in
          commit_pred st rel ~net_plus ~net_minus;
          n + TS.cardinal net_plus + TS.cardinal net_minus)
        0 updates);
  List.iter
    (fun s ->
      match s.s_kind with
      | Counting -> counting_scc view st s
      | Dred -> dred_scc view st s
      | Agg_counting spec -> agg_scc view st s spec)
    sccs;
  (* the [ivm.commit] failpoint moved to [Database.commit] — the single
     commit point that covers this update's publication *)
  rp.rp_plus <- Facts.cardinal st.dplus view.query_pred;
  rp.rp_minus <- Facts.cardinal st.dminus view.query_pred;
  assert_typed view (Facts.find st.dplus view.query_pred);
  view.store <- st.post;
  rp

(* The label graph after [updates]: the synchronized one revised, or
   built again when there is none or an update brings in a new node. *)
let updated_graph view tr updates =
  let g = ref view.graph in
  List.iter
    (fun (r, added, removed) ->
      Array.iteri
        (fun l r' ->
          if String.equal r r' then
            g := Option.bind !g (fun g -> Dc_exec.Reach.revise g l ~added ~removed))
        tr.tr_labels)
    updates;
  match !g with Some g -> g | None -> label_graph view tr

(* Maintenance by re-traversal.  A source's rows can change only if its
   traversal could walk a changed edge, so the affected sources are the
   tail of every changed label edge and every node from which some path
   of label edges leads to such a tail.  The post-update edges suffice
   for that search: on a path over the pre-update edges to a tail, the
   first deleted edge starts at a tail too, and every edge before it
   survived.  Those sources are traversed again over the post-update
   labels, and each one's answers merged with its old rows, a range scan
   of the extent: the rows only one side holds are the update's net
   delta.  When every node is affected this is the traversal from every
   source. *)
let traversal_update view tr updates =
  let guard = Guard.of_limits (Database.limits view.db) in
  let rp = report view "traversal" updates in
  let pred = view.query_pred in
  let old = Facts.find view.store pred in
  round guard;
  let g = ref None and sources = ref [] in
  timed rp (Fmt.str "affected sources %s" pred) (fun () ->
      let tails =
        List.concat_map
          (fun (r, added, removed) ->
            if Array.mem r tr.tr_labels then
              List.map (fun t -> Tuple.get t 0) (List.rev_append added removed)
            else [])
          updates
      in
      let graph = updated_graph view tr updates in
      g := Some graph;
      sources := Dc_exec.Reach.upstream graph tails;
      List.length !sources);
  (* [plus] and [minus] are built in decreasing tuple order; [olds] are
     the current source's old rows not yet met, [later] the affected
     sources not yet begun *)
  let plus = ref [] and minus = ref [] in
  let olds = ref [] and later = ref !sources in
  let drop rows = minus := List.rev_append rows !minus in
  let begin_source s =
    drop !olds;
    let rec skip = function
      | x :: rest when Value.compare x s < 0 ->
        drop (Relation.prefix_scan old [ x ]);
        skip rest
      | x :: rest when Value.equal x s -> rest
      | rest -> rest
    in
    later := skip !later;
    olds := Relation.prefix_scan old [ s ]
  in
  (* the answer [(s, t)] against the current source's old rows *)
  let rec meet s t = function
    | o :: rest when Value.compare (Tuple.get o 1) t < 0 ->
      minus := o :: !minus;
      meet s t rest
    | o :: rest when Value.equal (Tuple.get o 1) t -> olds := rest
    | rest ->
      olds := rest;
      plus := Tuple.make2 s t :: !plus
  in
  let label = closure_label view in
  timed rp (Fmt.str "re-traverse %s" pred) (fun () ->
      let rows = ref 0 and g = Option.get !g in
      let nodes = Dc_exec.Reach.nodes g in
      ignore
        (Dc_exec.Reach.run g tr.tr_automaton (Dc_exec.Reach.From !sources)
           (fun s block ->
             let s = nodes.(s) in
             Guard.ticks guard label (Array.length block);
             rows := !rows + Array.length block;
             begin_source s;
             Array.iter (fun t -> meet s nodes.(t) !olds) block));
      drop !olds;
      List.iter (fun x -> drop (Relation.prefix_scan old [ x ])) !later;
      !rows);
  timed rp (Fmt.str "replace rows %s" pred) (fun () ->
      let sorted rows = Relation.sorted_set (Array.of_list (List.rev rows)) in
      let added = sorted !plus in
      assert_typed view added;
      view.store <-
        Facts.add_set (Facts.remove_set view.store pred (sorted !minus)) pred added;
      view.graph <- !g;
      rp.rp_plus <- List.length !plus;
      rp.rp_minus <- List.length !minus;
      rp.rp_plus + rp.rp_minus);
  rp

let update view updates =
  let t0 = Obs.now_ms () in
  let rp =
    match view.status with
    | Stale ->
      (* an unmaintained update already desynchronized the view; stay
         stale and let the next serve refresh *)
      report view "stale" updates
    | Live -> (
      match view.plan with
      | Incremental sccs -> incremental_update view sccs updates
      | Traversal tr -> traversal_update view tr updates
      | Recompute why ->
        let rp = report view (Fmt.str "recompute: %s" why) updates in
        let before = Facts.cardinal view.store view.query_pred in
        timed rp "refixpoint" (fun () ->
            refresh view;
            Facts.cardinal view.store view.query_pred - before);
        rp)
  in
  rp.rp_ms <- Obs.now_ms () -. t0;
  push_report rp;
  if Obs.on () then begin
    Obs.Counter.inc (Lazy.force m_updates);
    Obs.Histogram.observe (Lazy.force m_maintain_ms) rp.rp_ms;
    Obs.Histogram.observe
      (Lazy.force m_delta_in)
      (float_of_int
         (List.fold_left
            (fun n (_, a, d) -> n + List.length a + List.length d)
            0 updates));
    Obs.Counter.add (Lazy.force m_inserted) rp.rp_plus;
    Obs.Counter.add (Lazy.force m_deleted) rp.rp_minus
  end

(* ------------------------------------------------------------------ *)
(* Serving *)

(* The view's extent as a relation: an O(1) wrap of the store's tuple
   set, whose rows were checked as they entered it ([assert_typed]). *)
let value view =
  if view.status = Stale then refresh view;
  Facts.to_relation view.def.Defs.con_result view.store view.query_pred

(* Does a constructor application match this view?  Same constructor,
   tuple-identical base, and each surface argument naming the same
   relation value / scalar the view was materialized over. *)
let matches view (def : Defs.constructor_def) base (args : Eval.arg_value list)
    =
  String.equal def.Defs.con_name view.con
  && (match Database.get view.db view.base with
     | rel -> Relation.compare_tuples rel base = 0
     | exception Database.Error _ -> false)
  && List.length args = List.length view.args
  && List.for_all2
       (fun a v ->
         match (a, v) with
         | Ast.Arg_scalar (Ast.Const c), Eval.V_scalar w -> Value.equal c w
         | Ast.Arg_range (Ast.Rel n), Eval.V_rel r -> (
           match Database.get view.db n with
           | rel -> Relation.compare_tuples rel r = 0
           | exception Database.Error _ -> false)
         | _ -> false)
       view.args args

(* ------------------------------------------------------------------ *)
(* Materialization *)

let maintainer_of view =
  {
    Database.mt_name = view.name;
    mt_view = View view;
    mt_application = Ast.Construct (Ast.Rel view.base, view.con, view.args);
    mt_depends = view.depends;
    mt_serve =
      (fun def base args ->
        if matches view def base args then Some (value view) else None);
    mt_update = (fun updates -> update view updates);
    mt_invalidate = (fun () -> view.status <- Stale);
    mt_begin =
      (fun () ->
        let store = view.store
        and status = view.status
        and counted = view.counted
        and graph = view.graph in
        Support.begin_undo view.supports;
        {
          Database.vt_commit = (fun () -> Support.commit view.supports);
          vt_rollback =
            (fun () ->
              view.store <- store;
              view.status <- status;
              view.counted <- counted;
              view.graph <- graph;
              Support.rollback view.supports);
        });
    mt_stale = (fun () -> view.status = Stale);
    mt_freeze =
      (fun () ->
        (* Publish-time capture for snapshot readers.  A stale view has
           no trustworthy extent and must not refresh here (freezing
           happens inside the commit path), so it declines and readers
           evaluate the application themselves.  For a Live view,
           resolve the base/argument relation values NOW — [matches]-style name
           lookups at serve time would race with later commits — and
           serve pure comparisons over a frozen store copy.  The served
           relation is built once per published version, by the first
           read: later reads share it.  An [Atomic], not a [Lazy], holds
           it, because pool domains may race to build it; the loser of
           the race adopts the winner's value. *)
        match view.status with
        | Stale -> None
        | Live -> (
          let resolve name =
            match Database.get view.db name with
            | rel -> Some rel
            | exception Database.Error _ -> None
          in
          let arg_vals =
            List.map
              (function
                | Ast.Arg_scalar (Ast.Const c) -> Some (Eval.V_scalar c)
                | Ast.Arg_range (Ast.Rel n) ->
                  Option.map (fun r -> Eval.V_rel r) (resolve n)
                | _ -> None)
              view.args
          in
          match (resolve view.base, List.for_all Option.is_some arg_vals) with
          | Some base_rel, true ->
            let arg_vals = List.map Option.get arg_vals in
            let store = Facts.freeze view.store in
            let con = view.con
            and result_schema = view.def.Defs.con_result
            and query_pred = view.query_pred in
            let memo = Atomic.make None in
            let served () =
              match Atomic.get memo with
              | Some rel -> rel
              | None ->
                let rel = Facts.to_relation result_schema store query_pred in
                if Atomic.compare_and_set memo None (Some rel) then rel
                else Option.get (Atomic.get memo)
            in
            Some
              (fun (def : Defs.constructor_def) base args ->
                if
                  String.equal def.Defs.con_name con
                  && Relation.compare_tuples base_rel base = 0
                  && List.length args = List.length arg_vals
                  && List.for_all2
                       (fun v w ->
                         match (v, w) with
                         | Eval.V_scalar a, Eval.V_scalar b -> Value.equal a b
                         | Eval.V_rel a, Eval.V_rel b ->
                           Relation.compare_tuples a b = 0
                         | _ -> false)
                       arg_vals args
                then Some (served ())
                else None)
          | _ -> None));
  }

(* The view of [Base{constructor(args)}], translated and planned, with
   no extent yet and not registered. *)
let make db ~what (def : Defs.constructor_def) ~base ~args =
  let constructor = def.con_name in
  let program, query_pred, aggs =
    try
      Translate.of_application_full
        (Translate.context (Database.typecheck_env db))
        (Ast.Construct (Ast.Rel base, constructor, args))
    with Translate.Unsupported msg ->
      error "%s %s: not translatable to the Horn fragment (%s)" what
        constructor msg
  in
  let plan = plan_of db def base args ~aggs program in
  {
    db;
    name = query_pred;
    con = constructor;
    base;
    args;
    def;
    program;
    aggs;
    query_pred;
    depends = SS.elements (Syntax.edb_preds program);
    plan;
    supports = Support.create ();
    store = Facts.empty ();
    status = Stale;
    counted = counted_from_start plan;
    graph = None;
  }

let register view =
  Database.register_maintainer view.db (maintainer_of view);
  if Obs.on () then Obs.Gauge.add (Lazy.force g_views) 1.

let materialize db ~constructor ~base ~args =
  let def =
    match Database.constructor db constructor with
    | Some d -> d
    | None -> error "unknown constructor %s" constructor
  in
  (try Database.check_query db (Ast.Construct (Ast.Rel base, constructor, args)) with
  | Database.Error msg | Typecheck.Error msg -> error "MATERIALIZE: %s" msg);
  let view = make db ~what:"MATERIALIZE" def ~base ~args in
  refresh view;
  register view;
  view

let unregister view =
  Database.unregister_maintainer view.db view.name;
  if Obs.on () then Obs.Gauge.add (Lazy.force g_views) (-1.)

let cardinal view = Facts.cardinal view.store view.query_pred

(* ------------------------------------------------------------------ *)
(* Checkpoint dump / restore (the durability layer's view of a view) *)

type dump = {
  dp_con : string;
  dp_base : string;
  dp_args : Ast.arg list;
  dp_stale : bool;
  dp_store : (string * Tuple.t list) list;
  dp_supports : (string * (Tuple.t * int) list) list;
}

let support_counts view = Support.dump view.supports
let counts_built view = view.counted
let program view = view.program

(* Recursive components' counts stay out of the checkpoint, as out of
   MATERIALIZE: the first update after [restore] builds them
   ([ensure_counts]), and a checkpoint (cut at every catalog change
   and by the checkpoint policy) does not grow with them. *)
let dump view =
  let recursive =
    match view.plan with
    | Incremental sccs ->
      List.concat_map
        (fun s -> if is_dred s then List.map fst s.s_init else [])
        sccs
    | Traversal _ | Recompute _ -> []
  in
  {
    dp_con = view.con;
    dp_base = view.base;
    dp_args = view.args;
    dp_stale = (view.status = Stale);
    dp_store =
      List.map
        (fun p -> (p, TS.elements (Facts.find view.store p)))
        (List.sort String.compare (Facts.preds view.store));
    dp_supports =
      Support.dump ~keep:(fun p -> not (List.mem p recursive)) view.supports;
  }

(* Rebuild a view from its checkpointed state: recompile the plan from
   the catalog (the definitions must already be restored into [db]), then
   adopt the dumped store, derivation counts, and staleness verbatim —
   no refresh, no refixpoint.  The WAL replay that follows drives the
   normal maintainer path, so recovery exercises exactly the machinery a
   live update stream does.

   The dump holds no counts of recursive components ([dump]), nor did a
   checkpoint written before they kept any: the view starts uncounted,
   and its first update builds them with the pass a materialized view's
   does.  Read as zeros instead, they would fail every rederive check.

   A traversal view adopts its extent alone: a checkpoint written while
   DRed maintained the same view also holds its base relations' copies
   and derivation counts, which a traversal does not keep. *)
let restore db d =
  let def =
    match Database.constructor db d.dp_con with
    | Some def -> def
    | None -> error "restore: unknown constructor %s" d.dp_con
  in
  let view = make db ~what:"restore" def ~base:d.dp_base ~args:d.dp_args in
  let traversal =
    match view.plan with Traversal _ -> true | Incremental _ | Recompute _ -> false
  in
  view.store <-
    List.fold_left
      (fun acc (p, ts) ->
        if traversal && not (String.equal p view.query_pred) then acc
        else Facts.add_set acc p (TS.of_list ts))
      (Facts.empty ()) d.dp_store;
  assert_typed view (Facts.find view.store view.query_pred);
  view.status <- (if d.dp_stale then Stale else Live);
  if not traversal then
    List.iter
      (fun (pred, rows) ->
        List.iter (fun (t, n) -> Support.set view.supports pred t n) rows)
      d.dp_supports;
  register view;
  view
