(* Semi-naive bottom-up evaluation with stratified negation.

   Within a stratum, each round evaluates one variant per rule and per
   positive occurrence of a same-stratum IDB predicate, with that occurrence
   reading the previous round's delta and all others the full store; rules
   without same-stratum IDB body atoms fire only in the first round.
   Negated atoms always read the completed lower strata (stratification
   guarantees they are stable).

   The variants are where the IR's delta-awareness pays off: each stratum
   compiles once to one round-1 pipeline and one delta pipeline per head
   predicate, the delta occurrence reading the named source "Δpred"; a
   round runs the same pipelines under a context that maps "pred" to the
   full store and "Δpred" to the delta — nothing is rebuilt between
   rounds, and the operator counters accumulate whole-fixpoint totals.
   The delta atom carries a zero-cardinality hint so the join-order
   rewrite scans it first and probes the (indexed) full stores.

   Each per-predicate pipeline is Diff(Union of the rule variants): the
   Diff drops already-known tuples per derivation — the interpreted
   engine's [Facts.mem] guard, answered by the predicate's novelty
   table — and the per-round sink set dedups the survivors, so no
   Distinct operator is needed.  New facts are
   accumulated per round and applied at round end, so the stores the
   joins read stay immutable during a round (their lookup indexes survive
   the whole round). *)

open Syntax

module SS = Set.Make (String)
module TS = Facts.TS
module Tuple_hset = Dc_relation.Tuple_hset
module Ir = Dc_exec.Ir
module Guard = Dc_guard.Guard
module Obs = Dc_obs.Obs

type stats = {
  mutable rounds : int;
  mutable derivations : int;
  mutable round_log : (int * float) list;
      (* (new tuples, wall ms) per round, latest first; only populated
         when metrics are enabled or the run is traced *)
}

let fresh_stats () = { rounds = 0; derivations = 0; round_log = [] }

let m_rounds = lazy (Obs.Counter.make ~labels:[ ("engine", "seminaive") ] "dc_datalog_rounds_total")
let m_round_ms = lazy (Obs.Histogram.make ~labels:[ ("engine", "seminaive") ] "dc_datalog_round_ms")
let m_round_delta = lazy (Obs.Histogram.make ~labels:[ ("engine", "seminaive") ] "dc_datalog_round_delta")

let observe_round stats ~delta ~t0 ~timed =
  if timed then begin
    let dt = Obs.now_ms () -. t0 in
    stats.round_log <- (delta, dt) :: stats.round_log;
    if Obs.on () then begin
      Obs.Counter.inc (Lazy.force m_rounds);
      Obs.Histogram.observe (Lazy.force m_round_ms) dt;
      Obs.Histogram.observe (Lazy.force m_round_delta) (float_of_int delta)
    end
  end

let run ?(guard = Guard.none) ?stats ?trace ?(aggs = []) (program : program)
    (edb : Facts.t) =
  check_safe program;
  let stats = Option.value stats ~default:(fresh_stats ()) in
  (* In-round dedup set, shared by every stratum and round of this run:
     a tuple joins the round's new tuples only the first time it is
     emitted. *)
  let seen = Tuple_hset.create () in
  let stratum = ref 0 in
  let eval_layer store layer =
    incr stratum;
    let layer_preds =
      List.fold_left (fun s r -> SS.add r.head.pred s) SS.empty layer
    in
    (* Aggregated head predicates of this layer share one mutable group
       table between the round-1 and delta pipelines: per-group bounds
       (MIN/MAX) and running COUNT/SUM accumulators persist across
       rounds, so a recursive MIN refines one bound per group instead of
       accumulating every derived cost.  Results the table displaces are
       drained at round end and withdrawn from the full store (they can
       have no same-stratum consumers besides other premappable
       aggregates, which tolerate the stale overestimate until the fresh
       bound displaces their own). *)
    let layer_aggs =
      List.filter (fun (p, _) -> SS.mem p layer_preds) aggs
    in
    let agg_tables = Hashtbl.create 4 in
    let table_for pred spec =
      match Hashtbl.find_opt agg_tables pred with
      | Some t -> t
      | None ->
        let t = Dc_agg.Agg.Group_table.create spec in
        TS.iter
          (fun r -> Dc_agg.Agg.Group_table.seed t r)
          (Facts.find store pred);
        Hashtbl.replace agg_tables pred t;
        t
    in
    let compile ?card ~source r =
      (Engine.compile_rule ?card ~source
         ~neg_source:(fun a -> Ir.Named a.pred)
         ~label:(lazy (Fmt.str "%a" pp_rule r))
         r)
        .Engine.pipeline
    in
    let per_pred groups =
      List.map
        (fun (pred, bodies) ->
          let u = Ir.union ~label:(lazy pred) bodies in
          let top =
            match List.assoc_opt pred layer_aggs with
            | Some spec ->
              Ir.group ~label:(lazy pred) ~table:(table_for pred spec) u
            | None -> Ir.diff ~label:(lazy pred) ~except:(Ir.Named pred) u
          in
          (pred, top, u))
        groups
    in
    let round1 =
      per_pred
        (List.map
           (fun (pred, rules) ->
             ( pred,
               List.map
                 (compile ~source:(fun _ (a : atom) ->
                      Engine.Static (Ir.Named a.pred)))
                 rules ))
           (Engine.group_by_head layer))
    in
    let delta_variants r =
      List.map
        (fun dpos ->
          (Engine.compile_variant ~delta_pos:dpos
             ~names:(fun i (a : atom) ->
               if i = dpos then Engine.delta_name a.pred else a.pred)
             ~label:(lazy (Fmt.str "%a" pp_rule r))
             r)
            .Engine.pipeline)
        (Engine.delta_positions
           ~member:(fun p -> SS.mem p layer_preds)
           r)
    in
    let deltas =
      per_pred
        (List.filter_map
           (fun (pred, rules) ->
             match List.concat_map delta_variants rules with
             | [] -> None
             | bodies -> Some (pred, bodies))
           (Engine.group_by_head layer))
    in
    (* Novelty tables of the head predicates: each holds exactly the
       full store's tuples of its predicate, so the [Diff] operators'
       membership test is one hash probe instead of a persistent-set
       descent.  Extended when [commit] applies a round.  Aggregated
       strata withdraw displaced tuples from the store and keep the
       store's own membership test. *)
    let novelty = Hashtbl.create 4 in
    if layer_aggs = [] then
      SS.iter
        (fun pred ->
          let table = Tuple_hset.create () in
          TS.iter (fun t -> ignore (Tuple_hset.add table t)) (Facts.find store pred);
          Hashtbl.replace novelty pred table)
        layer_preds;
    let with_novelty (ctx : Ir.ctx) : Ir.ctx =
     fun name ->
      let e = ctx name in
      match Hashtbl.find_opt novelty name with
      | Some table -> { e with Dc_exec.Extent.mem = Tuple_hset.mem table }
      | None -> e
    in
    (* One round: each head predicate's pipeline under [ctx] gives
       (pred, fresh tuples, displaced tuples).  Derivation counts fold
       into [stats]; for aggregated predicates the tuples the group table
       displaced this round are drained — [fresh \ displaced] becomes the
       delta, and the displaced set is withdrawn from the stores. *)
    let run_round pipes ctx =
      let ctx = with_novelty ctx in
      List.map
        (fun (pred, pipe, u) ->
          let before = u.Ir.tc.Ir.rows in
          let fresh = ref [] in
          Tuple_hset.clear seen;
          Ir.run ~guard ctx pipe (fun t ->
              if Tuple_hset.add seen t then fresh := t :: !fresh);
          let fresh = TS.of_list !fresh in
          stats.derivations <- stats.derivations + u.Ir.tc.Ir.rows - before;
          match Hashtbl.find_opt agg_tables pred with
          | None -> (pred, fresh, TS.empty)
          | Some tbl ->
            let displaced =
              List.fold_left
                (fun s t -> TS.add t s)
                TS.empty
                (Dc_agg.Agg.Group_table.drain_displaced tbl)
            in
            (pred, TS.diff fresh displaced, displaced))
        pipes
    in
    let keyed_paths =
      List.sort_uniq compare
        (List.concat_map
           (fun (_, pipe, _) -> Ir.keyed_sources pipe)
           (round1 @ deltas))
    in
    (* Warm hash paths: every round probes the one growing full store, so
       each of its keyed paths is built once here and then extended by
       every round's delta along the store chain (see [Facts]). *)
    List.iter
      (fun (name, positions) ->
        if Engine.split_delta name = None then
          Facts.prewarm store name positions)
      keyed_paths;
    let apply news st =
      List.fold_left
        (fun st (pred, fresh, displaced) ->
          let st =
            if TS.is_empty displaced then st
            else Facts.remove_set st pred displaced
          in
          Facts.add_set st pred fresh)
        st news
    in
    (* [apply] to the full store, with the novelty tables in step *)
    let commit news st =
      List.iter
        (fun (pred, fresh, _) ->
          match Hashtbl.find_opt novelty pred with
          | Some table -> TS.iter (fun t -> ignore (Tuple_hset.add table t)) fresh
          | None -> ())
        news;
      apply news st
    in
    let nonempty news =
      List.exists (fun (_, s, _) -> not (TS.is_empty s)) news
    in
    let new_count news =
      List.fold_left (fun n (_, s, _) -> n + TS.cardinal s) 0 news
    in
    let full = ref store in
    (* Round 1: all rules against the full store. *)
    Guard.round guard ~site:"datalog.round";
    stats.rounds <- stats.rounds + 1;
    let timed = Obs.on () || Option.is_some trace in
    let t0 = if timed then Obs.now_ms () else 0. in
    let news =
      run_round round1 (Engine.store_ctx !full)
    in
    observe_round stats ~delta:(new_count news) ~t0 ~timed;
    let delta = ref (apply news (Facts.empty ())) in
    full := commit news !full;
    (* Subsequent rounds: delta variants only. *)
    let continue = ref (nonempty news) in
    while !continue do
      Guard.round guard ~site:"datalog.round";
      stats.rounds <- stats.rounds + 1;
      let timed = Obs.on () || Option.is_some trace in
      let t0 = if timed then Obs.now_ms () else 0. in
      let news =
        run_round deltas (Engine.delta_ctx ~full:!full ~delta:!delta)
      in
      observe_round stats ~delta:(new_count news) ~t0 ~timed;
      delta := apply news (Facts.empty ());
      full := commit news !full;
      continue := nonempty news
    done;
    Option.iter
      (fun tr ->
        List.iter
          (fun (pred, pipe, _) ->
            Ir.Trace.record tr
              ~label:(Fmt.str "stratum %d: %s (round 1)" !stratum pred)
              pipe)
          round1;
        List.iter
          (fun (pred, pipe, _) ->
            Ir.Trace.record tr
              ~label:(Fmt.str "stratum %d: %s (delta rounds)" !stratum pred)
              pipe)
          deltas)
      trace;
    !full
  in
  List.fold_left eval_layer edb (Stratify.layers ~aggs program)

let query ?guard ?stats ?trace ?aggs program edb pred =
  Facts.find (run ?guard ?stats ?trace ?aggs program edb) pred
