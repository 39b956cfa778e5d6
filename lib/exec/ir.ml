(* The physical operator IR: one pull/push executor under the calculus
   evaluator, the compiled query plans, the constructor fixpoint, and the
   bottom-up Datalog engines (paper §4's single runtime level).

   Two layers:

   - row operators ('row node) thread an engine-specific row through a
     pipeline of scans, index probes, filters and anti-joins.  The row type
     is the engine's choice — the calculus evaluator threads a mutable
     [Tuple.t array] with one slot per binder, the Datalog engines a
     mutable [Value.t array] with one slot per rule variable — so the IR
     imposes no common tuple format on the hot path;
   - tuple operators (t) sit on top: [Project] grounds a row to an output
     tuple (packing the row type existentially, so whole pipelines are a
     monomorphic value), [Union]/[Diff]/[Distinct] combine tuple streams.

   Delta-awareness: a pipeline names its inputs ([Named] sources) and is
   executed against a [ctx] that resolves names to {!Extent.t}s.  A
   semi-naive round substitutes the delta for one occurrence by running
   the same pipeline under a different ctx — nothing is rebuilt, and the
   per-operator counters keep accumulating across rounds.

   Every operator carries mutable counters (rows emitted, lookups/probes
   performed); {!pp} renders the operator tree with the counters, which is
   what EXPLAIN prints after running a query. *)

open Dc_relation
module Guard = Dc_guard.Guard
module Obs = Dc_obs.Obs

exception Exec_error of string

let exec_error fmt = Fmt.kstr (fun s -> raise (Exec_error s)) fmt

type counters = {
  mutable rows : int;  (* rows/tuples emitted downstream *)
  mutable probes : int;  (* index lookups / membership tests performed *)
  mutable ms : float;  (* attributed wall time, only under {!profiled} *)
}

let fresh_counters () = { rows = 0; probes = 0; ms = 0. }

(* EXPLAIN ANALYZE profiling.  Reading the clock per emitted row would
   cost more than many operators' own work, so it never happens in normal
   runs (including metrics-enabled runs: the registry gets per-round and
   per-phase timings, operators only row counts).  Inside [profiled] each
   emission charges the elapsed time since the previous emission to the
   emitting operator — attribution by "who produced the next row", the
   classic sampling-free approximation for push pipelines. *)
let profiling = ref false
let prof_last = ref 0.

let[@inline] prof_tick (c : counters) =
  if !profiling then begin
    let t = Obs.now_ms () in
    c.ms <- c.ms +. (t -. !prof_last);
    prof_last := t
  end

let profiled f =
  let saved = !profiling in
  profiling := true;
  prof_last := Obs.now_ms ();
  Fun.protect ~finally:(fun () -> profiling := saved) f

(* ------------------------------------------------------------------ *)
(* Sources and execution contexts *)

type source =
  | Fixed of Extent.t  (* resolved at build time *)
  | Named of string  (* resolved per run through the ctx *)

type ctx = string -> Extent.t

let empty_ctx : ctx = fun n -> exec_error "unresolved source %s" n

let ctx_of_list l : ctx =
 fun n ->
  match List.assoc_opt n l with
  | Some e -> e
  | None -> exec_error "unresolved source %s" n

let resolve (ctx : ctx) = function
  | Fixed e -> e
  | Named n -> ctx n

let source_label = function
  | Fixed e -> e.Extent.label
  | Named n -> n

(* ------------------------------------------------------------------ *)
(* Row operators *)

(* Labels are lazy: they exist only for EXPLAIN, and the calculus
   evaluator lowers pipelines per fixpoint round — formatting an operator
   label eagerly would put [Fmt.str] on the fixpoint hot path. *)
type 'row node = {
  op : 'row op;
  label : string Lazy.t;
  c : counters;
}

and 'row op =
  | Seed  (* emit the run's initial row once *)
  | Scan of 'row access  (* leaf: iterate the source, bind each tuple *)
  | Nested_loop_join of 'row access  (* per input row, iterate the source *)
  | Index_lookup of 'row keyed  (* leaf: one keyed probe on the seed row *)
  | Hash_join of 'row keyed  (* per input row, probe the source's index *)
  | Correlated_scan of {
      cs_input : 'row node;
      cs_gen : 'row -> Extent.t;  (* source depends on the current row *)
      cs_bind : 'row -> Tuple.t -> 'row option;
    }
  | Filter of {
      f_input : 'row node;
      f_pred : 'row -> bool;
    }
  | Anti_join of {
      aj_input : 'row node;
      aj_src : source;
      aj_key : 'row -> Tuple.t;  (* drop rows whose key is in the source *)
    }

and 'row access = {
  a_input : 'row node;
  a_src : source;
  a_bind : 'row -> Tuple.t -> 'row option;  (* None: tuple rejected *)
}

and 'row keyed = {
  k_input : 'row node;
  k_src : source;
  k_positions : int list;  (* key positions in the source's tuples *)
  k_key : 'row -> Value.t list;  (* key values from the current row *)
  k_bind : 'row -> Tuple.t -> 'row option;
}

(* Smart constructors: the scan/probe of a seed row is a leaf access; fed
   by a non-trivial input it is a join.  The executor treats the pair
   identically — the split exists so EXPLAIN names operators honestly. *)

let seed () = { op = Seed; label = lazy "seed"; c = fresh_counters () }

let scan ~label ~src ~bind input =
  let acc = { a_input = input; a_src = src; a_bind = bind } in
  match input.op with
  | Seed -> { op = Scan acc; label; c = fresh_counters () }
  | _ -> { op = Nested_loop_join acc; label; c = fresh_counters () }

let lookup ~label ~src ~positions ~key ~bind input =
  let k =
    { k_input = input; k_src = src; k_positions = positions; k_key = key;
      k_bind = bind }
  in
  match input.op with
  | Seed -> { op = Index_lookup k; label; c = fresh_counters () }
  | _ -> { op = Hash_join k; label; c = fresh_counters () }

let correlated_scan ~label ~gen ~bind input =
  { op = Correlated_scan { cs_input = input; cs_gen = gen; cs_bind = bind };
    label; c = fresh_counters () }

let filter ~label ~pred input =
  { op = Filter { f_input = input; f_pred = pred }; label;
    c = fresh_counters () }

let anti_join ~label ~src ~key input =
  { op = Anti_join { aj_input = input; aj_src = src; aj_key = key }; label;
    c = fresh_counters () }

(* ------------------------------------------------------------------ *)
(* Tuple operators *)

type t = {
  top : top;
  tlabel : string Lazy.t;
  tc : counters;
}

and top =
  | Project : {
      p_input : 'row node;
      p_init : unit -> 'row;  (* fresh initial row for one run *)
      p_tuple : 'row -> Tuple.t;
    }
      -> top
  | Union of t list
  | Diff of {
      d_input : t;
      d_except : source;  (* drop tuples present in the source *)
    }
  | Distinct of t  (* emit each tuple once per run *)
  | Group of {
      g_input : t;  (* raw tuples *)
      g_table : Dc_agg.Agg.Group_table.t;
          (* grouped accumulator: emits a result tuple when a group's
             aggregate changes; the displaced predecessor queues in the
             table for the evaluator's round loop to drain *)
    }
  | Closure of {
      cl_labels : source array;  (* binary edges, one source per label *)
      cl_automaton : Reach.automaton;
      cl_seed : Reach.seed;
    }
      (* leaf: the root's relation of a regular system by traversal
         ({!Reach}), in tuple order; probes count the traversals *)

let project ~label ~init ~tuple input =
  { top = Project { p_input = input; p_init = init; p_tuple = tuple };
    tlabel = label; tc = fresh_counters () }

let union ~label ts = { top = Union ts; tlabel = label; tc = fresh_counters () }

let diff ~label ~except t =
  { top = Diff { d_input = t; d_except = except }; tlabel = label;
    tc = fresh_counters () }

let distinct ~label t =
  { top = Distinct t; tlabel = label; tc = fresh_counters () }

let group ~label ~table t =
  { top = Group { g_input = t; g_table = table }; tlabel = label;
    tc = fresh_counters () }

let closure ~label ~labels automaton seed =
  { top = Closure { cl_labels = labels; cl_automaton = automaton; cl_seed = seed };
    tlabel = label; tc = fresh_counters () }

(* ------------------------------------------------------------------ *)
(* Execution.  Push-based internally: each operator folds its input and
   calls the continuation per row — no closure of the whole pipeline into
   an intermediate structure, no per-tuple allocation beyond what the
   row representation itself requires.

   The guard is ticked on exactly the emissions that bump [c.rows]: the
   row counters and the governor share hot-path hooks, so a pipeline
   with no limits pays one increment and one compare per row.  [guard]
   is a plain parameter here (not optional) because the polymorphic
   recursion annotation doesn't admit optional arguments. *)

let rec run_node :
    'row. Guard.t -> ctx -> 'row node -> 'row -> ('row -> unit) -> unit =
  fun (type row) guard ctx (node : row node) (init : row) (k : row -> unit) ->
   let c = node.c in
   let label = node.label in
   match node.op with
   | Seed ->
     c.rows <- c.rows + 1;
     Guard.tick guard label;
     prof_tick c;
     k init
   | Scan a | Nested_loop_join a ->
     let ext = resolve ctx a.a_src in
     let bind = a.a_bind in
     run_node guard ctx a.a_input init (fun row ->
         ext.Extent.iter (fun t ->
             match bind row t with
             | Some row' ->
               c.rows <- c.rows + 1;
               Guard.tick guard label;
               prof_tick c;
               k row'
             | None -> ()))
   | Index_lookup kd | Hash_join kd ->
     let ext = resolve ctx kd.k_src in
     let bind = kd.k_bind in
     run_node guard ctx kd.k_input init (fun row ->
         c.probes <- c.probes + 1;
         let matches = ext.Extent.lookup kd.k_positions (kd.k_key row) in
         List.iter
           (fun t ->
             match bind row t with
             | Some row' ->
               c.rows <- c.rows + 1;
               Guard.tick guard label;
               prof_tick c;
               k row'
             | None -> ())
           matches)
   | Correlated_scan cs ->
     run_node guard ctx cs.cs_input init (fun row ->
         let ext = cs.cs_gen row in
         ext.Extent.iter (fun t ->
             match cs.cs_bind row t with
             | Some row' ->
               c.rows <- c.rows + 1;
               Guard.tick guard label;
               prof_tick c;
               k row'
             | None -> ()))
   | Filter f ->
     run_node guard ctx f.f_input init (fun row ->
         if f.f_pred row then begin
           c.rows <- c.rows + 1;
           Guard.tick guard label;
           prof_tick c;
           k row
         end)
   | Anti_join aj ->
     let ext = resolve ctx aj.aj_src in
     run_node guard ctx aj.aj_input init (fun row ->
         c.probes <- c.probes + 1;
         if not (ext.Extent.mem (aj.aj_key row)) then begin
           c.rows <- c.rows + 1;
           Guard.tick guard label;
           prof_tick c;
           k row
         end)

let rec run ?(guard = Guard.none) (ctx : ctx) (t : t) (k : Tuple.t -> unit) =
  let c = t.tc in
  let label = t.tlabel in
  match t.top with
  | Project p ->
    run_node guard ctx p.p_input (p.p_init ()) (fun row ->
        c.rows <- c.rows + 1;
        Guard.tick guard label;
        prof_tick c;
        k (p.p_tuple row))
  | Union ts ->
    List.iter
      (fun sub ->
        run ~guard ctx sub (fun tuple ->
            c.rows <- c.rows + 1;
            Guard.tick guard label;
            prof_tick c;
            k tuple))
      ts
  | Diff d ->
    let ext = resolve ctx d.d_except in
    run ~guard ctx d.d_input (fun tuple ->
        c.probes <- c.probes + 1;
        if not (ext.Extent.mem tuple) then begin
          c.rows <- c.rows + 1;
          Guard.tick guard label;
          prof_tick c;
          k tuple
        end)
  | Distinct sub ->
    let seen = Tuple_hset.create () in
    run ~guard ctx sub (fun tuple ->
        if Tuple_hset.add seen tuple then begin
          c.rows <- c.rows + 1;
          Guard.tick guard label;
          prof_tick c;
          k tuple
        end)
  | Group g ->
    run ~guard ctx g.g_input (fun raw ->
        c.probes <- c.probes + 1;
        match Dc_agg.Agg.Group_table.offer g.g_table raw with
        | None -> () (* subsumed by the group's current bound *)
        | Some result ->
          c.rows <- c.rows + 1;
          Guard.tick guard label;
          prof_tick c;
          k result)
  | Closure cl ->
    let labels = Array.map (fun src -> (resolve ctx src).Extent.iter) cl.cl_labels in
    (* a trip names the operator, not just the constructor it closes *)
    let label = lazy ("closure " ^ Lazy.force label) in
    let traversals =
      Reach.iter labels cl.cl_automaton cl.cl_seed (fun a b ->
          c.rows <- c.rows + 1;
          Guard.tick guard label;
          prof_tick c;
          k (Tuple.make2 a b))
    in
    c.probes <- c.probes + traversals

(* Run a pipeline and collect its output into a relation. *)
let collect ?(ctx = empty_ctx) ?guard ~schema t =
  let acc = ref (Relation.empty schema) in
  run ?guard ctx t (fun tuple -> acc := Relation.add_unchecked tuple !acc);
  !acc

(* Run a pipeline whose output comes in increasing tuple order, each
   tuple once (a [Closure]), into a growing array: the relation is that
   array, wrapped as a run.  Binary search and [cardinal] on the run rely
   on that order, so each tuple is asserted to follow the one before. *)
let collect_sorted ?(ctx = empty_ctx) ?guard ~schema t =
  let rows = ref [||] and n = ref 0 in
  run ?guard ctx t (fun tuple ->
      assert (!n = 0 || Tuple.compare !rows.(!n - 1) tuple < 0);
      if !n = Array.length !rows then begin
        let grown = Array.make (max 64 (2 * !n)) tuple in
        Array.blit !rows 0 grown 0 !n;
        rows := grown
      end;
      !rows.(!n) <- tuple;
      incr n);
  Relation.of_sorted_unchecked schema
    (if !n = Array.length !rows then !rows else Array.sub !rows 0 !n)

(* ------------------------------------------------------------------ *)
(* Printing: the operator tree with post-run counters. *)

(* [times:true] is the EXPLAIN ANALYZE rendering; plain EXPLAIN keeps the
   historical counter-only form (and its golden test) byte-identical. *)
let pp_counters_gen ~times ppf (c : counters) =
  if times then
    if c.probes = 0 then Fmt.pf ppf "[rows=%d time=%.2fms]" c.rows c.ms
    else Fmt.pf ppf "[rows=%d probes=%d time=%.2fms]" c.rows c.probes c.ms
  else if c.probes = 0 then Fmt.pf ppf "[rows=%d]" c.rows
  else Fmt.pf ppf "[rows=%d probes=%d]" c.rows c.probes

let pp_counters = pp_counters_gen ~times:false

let op_name : type row. row op -> string = function
  | Seed -> "seed"
  | Scan _ -> "scan"
  | Nested_loop_join _ -> "nested-loop-join"
  | Index_lookup _ -> "index-lookup"
  | Hash_join _ -> "hash-join"
  | Correlated_scan _ -> "correlated-scan"
  | Filter _ -> "filter"
  | Anti_join _ -> "anti-join"

let top_name = function
  | Project _ -> "project"
  | Union _ -> "union"
  | Diff _ -> "diff"
  | Distinct _ -> "distinct"
  | Group _ -> "group"
  | Closure _ -> "closure"

let rec pp_node_gen : type row. bool -> row node Fmt.t =
 fun times ppf node ->
  let pp_counters = pp_counters_gen ~times in
  (match node.op with
  | Seed -> Fmt.pf ppf "%s %a" (op_name node.op) pp_counters node.c
  | _ ->
    Fmt.pf ppf "%s %s %a" (op_name node.op) (Lazy.force node.label) pp_counters
      node.c);
  let child : row node option =
    match node.op with
    | Seed -> None
    | Scan a | Nested_loop_join a -> Some a.a_input
    | Index_lookup k | Hash_join k -> Some k.k_input
    | Correlated_scan cs -> Some cs.cs_input
    | Filter f -> Some f.f_input
    | Anti_join aj -> Some aj.aj_input
  in
  match child with
  | None | Some { op = Seed; _ } -> ()  (* elide the seed leaf *)
  | Some input -> Fmt.pf ppf "@,%a" (pp_node_gen times) input

let pp_node ppf node = pp_node_gen false ppf node

let rec pp_gen times ppf (t : t) =
  let pp_counters = pp_counters_gen ~times in
  match t.top with
  | Project p ->
    Fmt.pf ppf "@[<v2>%s %s %a@,%a@]" (top_name t.top) (Lazy.force t.tlabel)
      pp_counters t.tc (pp_node_gen times) p.p_input
  | Union ts ->
    Fmt.pf ppf "@[<v2>%s %s %a" (top_name t.top) (Lazy.force t.tlabel)
      pp_counters t.tc;
    List.iter (fun sub -> Fmt.pf ppf "@,%a" (pp_gen times) sub) ts;
    Fmt.pf ppf "@]"
  | Diff d ->
    Fmt.pf ppf "@[<v2>%s (except %s) %s %a@,%a@]" (top_name t.top)
      (source_label d.d_except) (Lazy.force t.tlabel) pp_counters t.tc
      (pp_gen times) d.d_input
  | Distinct sub ->
    Fmt.pf ppf "@[<v2>%s %s %a@,%a@]" (top_name t.top) (Lazy.force t.tlabel)
      pp_counters t.tc (pp_gen times) sub
  | Group g ->
    let spec = Dc_agg.Agg.Group_table.spec g.g_table in
    Fmt.pf ppf "@[<v2>%s (%s) %s %a@,%a@]" (top_name t.top)
      (Dc_agg.Agg.op_name spec.Dc_agg.Agg.op)
      (Lazy.force t.tlabel) pp_counters t.tc (pp_gen times) g.g_input
  | Closure cl ->
    Fmt.pf ppf "%s %s over %s (%a) %a" (top_name t.top) (Lazy.force t.tlabel)
      (String.concat ", " (Array.to_list (Array.map source_label cl.cl_labels)))
      Reach.pp_seed cl.cl_seed pp_counters t.tc

let pp ppf t = pp_gen false ppf t
let pp_analyze ppf t = pp_gen true ppf t

(* ------------------------------------------------------------------ *)
(* Traces: the EXPLAIN-facing record of every pipeline a query execution
   lowered and ran.  Pipelines are registered under a label; re-running
   the same label (fixpoint rounds re-lowering a variant, semi-naive
   rounds re-running a stratum) merges counters into the stored tree of
   the same shape, so EXPLAIN shows totals over the whole execution.  A
   label whose shape changes between runs (a cardinality-driven reorder
   flipping when the delta outgrows the base) keeps one totalled tree per
   shape. *)

module Trace = struct
  type entry = {
    e_label : string;
    mutable e_pipeline : t;
    mutable e_runs : int;
  }

  type trace = {
    mutable entries : entry list;
        (* reverse registration order; a label's shapes are adjacent *)
    mutable scope : string;  (* label prefix set by the current driver *)
    mutable rounds : (int * float) list;
        (* the last recursive evaluation's rounds, first round first:
           (new tuples, wall ms) *)
  }

  let create () = { entries = []; scope = "query"; rounds = [] }

  let set_rounds tr log = tr.rounds <- log
  let rounds tr = tr.rounds

  let scoped tr scope f =
    let saved = tr.scope in
    tr.scope <- scope;
    Fun.protect ~finally:(fun () -> tr.scope <- saved) f

  exception Shape_mismatch

  (* The counters of two trees paired operator by operator, top first;
     raises [Shape_mismatch] unless both have the same operators with
     the same labels. *)
  let rec zip_node : type row sow.
      (counters * counters) list -> row node -> sow node ->
      (counters * counters) list =
   fun acc stored fresh ->
    if
      op_name stored.op <> op_name fresh.op
      || Lazy.force stored.label <> Lazy.force fresh.label
    then raise Shape_mismatch;
    let acc = (stored.c, fresh.c) :: acc in
    let child : type r. r node -> r node option =
     fun n ->
      match n.op with
      | Seed -> None
      | Scan a | Nested_loop_join a -> Some a.a_input
      | Index_lookup k | Hash_join k -> Some k.k_input
      | Correlated_scan cs -> Some cs.cs_input
      | Filter f -> Some f.f_input
      | Anti_join aj -> Some aj.aj_input
    in
    match child stored, child fresh with
    | None, None -> acc
    | Some s, Some f -> zip_node acc s f
    | _ -> raise Shape_mismatch

  let rec zip acc stored fresh =
    if
      top_name stored.top <> top_name fresh.top
      || Lazy.force stored.tlabel <> Lazy.force fresh.tlabel
    then raise Shape_mismatch;
    let acc = (stored.tc, fresh.tc) :: acc in
    match stored.top, fresh.top with
    | Project s, Project f -> zip_node acc s.p_input f.p_input
    | Union ss, Union fs ->
      if List.length ss <> List.length fs then raise Shape_mismatch;
      List.fold_left2 zip acc ss fs
    | Diff s, Diff f -> zip acc s.d_input f.d_input
    | Distinct s, Distinct f -> zip acc s f
    | Group s, Group f -> zip acc s.g_input f.g_input
    | Closure s, Closure f when s.cl_seed = f.cl_seed -> acc
    | _ -> raise Shape_mismatch

  (* Fold the counters of [fresh] into [stored].  The whole shape is
     compared before any counter moves, so a mismatch changes nothing. *)
  let merge stored fresh =
    List.iter
      (fun (s, f) ->
        s.rows <- s.rows + f.rows;
        s.probes <- s.probes + f.probes;
        s.ms <- s.ms +. f.ms)
      (zip [] stored fresh)

  (* Register a pipeline (before or after running it: counters are read
     at print time).  The label is prefixed by the current scope. *)
  let record tr ?label pipeline =
    let label =
      match label with
      | Some l -> Fmt.str "%s: %s" tr.scope l
      | None -> tr.scope
    in
    let same e = String.equal e.e_label label in
    (* the same (prebuilt) pipeline re-registered across rounds already
       accumulates in place; a freshly lowered tree of a stored shape has
       that shape's totals folded in and replaces it (its counters keep
       growing after registration); a new shape gets its own entry, next
       to the label's others *)
    let fold e =
      if pipeline == e.e_pipeline then true
      else
        match merge pipeline e.e_pipeline with
        | () ->
          e.e_pipeline <- pipeline;
          true
        | exception Shape_mismatch -> false
    in
    match List.find_opt (fun e -> same e && fold e) tr.entries with
    | Some e -> e.e_runs <- e.e_runs + 1
    | None ->
      let fresh = { e_label = label; e_pipeline = pipeline; e_runs = 1 } in
      let rec insert = function
        | e :: rest when same e -> Some (fresh :: e :: rest)
        | e :: rest -> Option.map (List.cons e) (insert rest)
        | [] -> None
      in
      tr.entries <-
        Option.value (insert tr.entries) ~default:(fresh :: tr.entries)

  let entries tr = List.rev tr.entries

  let pipelines tr = List.map (fun e -> (e.e_label, e.e_pipeline)) (entries tr)

  let is_empty tr = tr.entries = []

  let pp_with times ppf tr =
    let entries = entries tr in
    let shapes label =
      List.length (List.filter (fun e -> String.equal e.e_label label) entries)
    in
    let rec go prev nth = function
      | [] -> ()
      | e :: rest ->
        let nth = if String.equal prev e.e_label then nth + 1 else 1 in
        let n = shapes e.e_label in
        let notes =
          (if n > 1 then [ Fmt.str "shape %d of %d" nth n ] else [])
          @
          if e.e_runs > 1 then
            [ Fmt.str "%d runs, counters totalled" e.e_runs ]
          else []
        in
        (match notes with
        | [] ->
          Fmt.pf ppf "@[<v2>%s:@,%a@]@." e.e_label (pp_gen times) e.e_pipeline
        | _ ->
          Fmt.pf ppf "@[<v2>%s (%s):@,%a@]@." e.e_label
            (String.concat ", " notes) (pp_gen times) e.e_pipeline);
        go e.e_label nth rest
    in
    go "" 0 entries

  let pp ppf tr = pp_with false ppf tr
  let pp_analyze ppf tr = pp_with true ppf tr

  (* Flatten every operator of every entry into
     (entry label, operator name, operator label, counters) — the data
     behind [register_metrics] and the conservation property tests. *)
  let counters tr =
    let acc = ref [] in
    let push entry op lbl c = acc := (entry, op, lbl, c) :: !acc in
    let rec walk_node : type row. string -> row node -> unit =
     fun entry n ->
      push entry (op_name n.op) (Lazy.force n.label) n.c;
      match n.op with
      | Seed -> ()
      | Scan a | Nested_loop_join a -> walk_node entry a.a_input
      | Index_lookup k | Hash_join k -> walk_node entry k.k_input
      | Correlated_scan cs -> walk_node entry cs.cs_input
      | Filter f -> walk_node entry f.f_input
      | Anti_join aj -> walk_node entry aj.aj_input
    in
    let rec walk entry (t : t) =
      push entry (top_name t.top) (Lazy.force t.tlabel) t.tc;
      match t.top with
      | Project p -> walk_node entry p.p_input
      | Union ts -> List.iter (walk entry) ts
      | Diff d -> walk entry d.d_input
      | Distinct s -> walk entry s
      | Group g -> walk entry g.g_input
      | Closure _ -> ()
    in
    List.iter (fun e -> walk e.e_label e.e_pipeline) (entries tr);
    List.rev !acc

  (* Publish a completed trace's per-operator totals into the metrics
     registry (dc_operator_rows_total / dc_operator_probes_total, labelled
     by entry, operator and operator label).  Repeated occurrences of the
     same labelled operator accumulate. *)
  let register_metrics tr =
    if Obs.on () then
      List.iter
        (fun (entry, op, lbl, c) ->
          let labels = [ ("entry", entry); ("label", lbl); ("op", op) ] in
          Obs.Counter.add
            (Obs.Counter.make ~labels "dc_operator_rows_total")
            c.rows;
          if c.probes > 0 then
            Obs.Counter.add
              (Obs.Counter.make ~labels "dc_operator_probes_total")
              c.probes)
        (counters tr)
end

type trace = Trace.trace

(* ------------------------------------------------------------------ *)
(* Access-path inventory *)

(* Every (name, key positions) pair the pipeline probes through a keyed
   access path on a [Named] source, deduplicated: a fixpoint driver
   prewarms these on its growing store once, so they stay warm hash
   indexes across rounds. *)
let keyed_sources (t : t) =
  let acc = ref [] in
  let add src positions =
    match src with
    | Named n -> acc := (n, positions) :: !acc
    | Fixed _ -> ()
  in
  let rec walk_node : type row. row node -> unit =
   fun n ->
    match n.op with
    | Seed -> ()
    | Scan a | Nested_loop_join a -> walk_node a.a_input
    | Index_lookup k | Hash_join k ->
      add k.k_src k.k_positions;
      walk_node k.k_input
    | Correlated_scan cs -> walk_node cs.cs_input
    | Filter f -> walk_node f.f_input
    | Anti_join aj -> walk_node aj.aj_input
  in
  let rec walk (t : t) =
    match t.top with
    | Project p -> walk_node p.p_input
    | Union ts -> List.iter walk ts
    | Diff d -> walk d.d_input
    | Distinct s -> walk s
    | Group g -> walk g.g_input
    | Closure _ -> ()
  in
  walk t;
  List.sort_uniq compare !acc
