(* Least-fixpoint semantics of constructor application (paper §3.2).

   Given an application  Actrel{c(args)}, we collect the system of all
   (possibly mutually recursive) constructor applications reachable from it,
   close each definition over its actual base relation and arguments to
   obtain functions  g_1 ... g_l, and iterate

     apply_i^0     = {}                         (i = 1 .. l)
     apply_i^(k+1) = g_i (apply_1^k, ..., apply_l^k)

   until  apply_i^(k+1) = apply_i^k  for every i (Jacobi iteration, exactly
   as in the paper's REPEAT loops).  For positive (hence monotone) systems
   over finite domains the limit exists and is reached after finitely many
   steps [Tars 55], and equals the least fixpoint of the equation system.

   Applications are discovered dynamically: the first time an evaluation
   resolves  Base{c(vs)}  for a not-yet-registered key (constructor name,
   base relation value, argument values), the key is registered at bottom
   and joins the iterated vector from the next round on.

   Two strategies are provided:
   - [Naive]: re-evaluate every g_i from scratch each round;
   - [Seminaive]: differential evaluation.  For definitions whose recursive
     occurrences all appear as top-level binder ranges with construct-free
     bases/arguments (every example in the paper qualifies), each round
     evaluates, per branch and per recursive binder occurrence, a variant
     with that occurrence bound to the previous round's delta and all other
     occurrences bound to the previous full value.  Definitions outside this
     class silently fall back to naive re-evaluation (soundness first).

   Full values are merged only when needed.  A semi-naive application's
   value is its merged relation ([full]) plus the sorted deltas committed
   since (its pending runs), and its novelty table holds every tuple of
   both.  The runs are merged into [full] only when
   - something reads the value as a relation: a non-delta construct
     occurrence (non-linear rules) or the [on_construct] hook, which
     Opaque and first (naive) evaluations go through;
   - the pending tuples reach the merged value's size, so merges are
     geometric: O(log n) of them, copying O(n log n) tuples in all.
     Only the values convergence reads follow this size rule: the root's
     and those whose key is not the whole tuple (checked over the whole
     value).  Any other value is merged only if a round reads it, and
     its runs are dropped at convergence;
   - the run converges, for the result.
   A round's delta joins the runs at the commit step, so a read during the
   round sees exactly the previous round's value.  A linear system, whose
   variants read only deltas (the paper's ahead/above, right-linear tc),
   builds no persistent union per round.

   Non-monotone systems (only reachable with positivity checking turned
   off, §3.3) are guarded by a convergence fuse: oscillation of period two
   — the behaviour of the paper's "nonsense" constructor — is detected and
   reported as [Divergence]. *)

open Dc_relation
open Dc_calculus
module Guard = Dc_guard.Guard
module Obs = Dc_obs.Obs
module Par = Dc_par.Par

exception Divergence of string

let divergence fmt = Fmt.kstr (fun s -> raise (Divergence s)) fmt

type strategy =
  | Naive
  | Seminaive

type stats = {
  mutable rounds : int; (* fixpoint iterations until convergence *)
  mutable applications : int; (* size l of the application system *)
  mutable body_evaluations : int; (* branch-evaluation passes performed *)
  mutable tuples_produced : int; (* sum of delta sizes over all rounds *)
  mutable tuples_derived : int; (* tuples computed incl. rediscoveries *)
  mutable round_deltas : int list; (* new tuples per round, latest first *)
  mutable round_times : float list; (* wall ms per round, latest first *)
}

let fresh_stats () =
  {
    rounds = 0;
    applications = 0;
    body_evaluations = 0;
    tuples_produced = 0;
    tuples_derived = 0;
    round_deltas = [];
    round_times = [];
  }

(* Registry instruments (lazy: looked up once, shared by every run).
   Counters/histograms only ever grow; the two gauges mirror the live
   database state and are restored on an aborted [apply] so SHOW METRICS
   stays consistent with the journaled index-cache rollback. *)
let m_rounds = lazy (Obs.Counter.make "dc_fixpoint_rounds_total")
let m_round_ms = lazy (Obs.Histogram.make "dc_fixpoint_round_ms")
let m_round_delta = lazy (Obs.Histogram.make "dc_fixpoint_round_delta")
let g_apps = lazy (Obs.Gauge.make "dc_fixpoint_applications")
let g_tuples = lazy (Obs.Gauge.make "dc_fixpoint_tuples")

(* Both series are latest-first; times exist only while metrics are on
   or the env traces, so the zip keeps the rounds that have both. *)
let round_log s =
  let rec zip acc ds ts =
    match ds, ts with
    | d :: ds, t :: ts -> zip ((d, t) :: acc) ds ts
    | _ -> acc
  in
  zip [] s.round_deltas s.round_times

let pp_stats ppf s =
  Fmt.pf ppf "rounds=%d apps=%d body_evals=%d tuples=%d derived=%d" s.rounds
    s.applications s.body_evaluations s.tuples_produced s.tuples_derived

(* ------------------------------------------------------------------ *)
(* Application keys: constructor name + base value + argument values. *)

module Key = struct
  type t = {
    con : string;
    base : Relation.t;
    args : Eval.arg_value list;
  }

  let compare_arg a b =
    match a, b with
    | Eval.V_scalar x, Eval.V_scalar y -> Value.compare x y
    | Eval.V_rel x, Eval.V_rel y -> Relation.compare_tuples x y
    | Eval.V_scalar _, Eval.V_rel _ -> -1
    | Eval.V_rel _, Eval.V_scalar _ -> 1

  let compare a b =
    let c = String.compare a.con b.con in
    if c <> 0 then c
    else
      let c = Relation.compare_tuples a.base b.base in
      if c <> 0 then c else List.compare compare_arg a.args b.args
end

module KM = Map.Make (Key)
module KS = Set.Make (Key)

(* A registered application: its definition, the environment in which its
   body is evaluated (formal and parameters bound), and the compiled
   semi-naive shape. *)
type app = {
  key : Key.t;
  def : Defs.constructor_def;
  base_env : Eval.env;
  shape : shape;
  novelty : Tuple_hset.t;
      (* Diffable apps: every tuple of the value plus the current round's
         new ones, stamped with the table's round that last emitted it
         (see [round]) *)
  mutable pending : Relation.Tuple_set.t list;
      (* Diffable apps: the sorted deltas committed since [full] was last
         merged, newest first; the value is [full] plus these runs *)
  mutable pending_size : int; (* tuples in [pending] *)
}

(* Semi-naive shape of a definition body:
   [Diffable]: every Construct occurrence is a top-level binder range with
   construct-free base/args.  Branches without recursive occurrences are
   constant (they contribute only to the first evaluation); recursive
   branches carry the positions of their construct binders, one delta
   variant per position and round.  [Opaque]: anything else; evaluated
   naively every round. *)
and shape =
  | Diffable of rec_branch list (* recursive branches only *)
  | Opaque

and rec_branch = {
  rb_branch : Ast.branch;
  rb_construct_binders : int list;
}

(* Constructor applications in a fragment. *)
let constructs =
  {
    Morph.skip with
    range =
      (fun _ n -> function
        | Ast.Construct _ -> n + 1
        | _ -> n);
  }

(* Positions of diffable construct binders in a branch, or None if the
   branch falls outside the semi-naive class. *)
let classify_branch (b : Ast.branch) =
  let ok = ref (Morph.fold_formula constructs 0 b.where = 0) in
  let positions =
    List.mapi
      (fun i (_, r) ->
        let n = Morph.fold_range constructs 0 r in
        match r with
        | Ast.Construct _ ->
          if n > 1 then ok := false;
          Some i
        | _ ->
          if n > 0 then ok := false;
          None)
      b.binders
    |> List.filter_map Fun.id
  in
  if !ok then Some positions else None

let classify_body (branches : Ast.branch list) =
  let rec loop recursive = function
    | [] -> Diffable (List.rev recursive)
    | b :: rest -> (
      match classify_branch b with
      | None -> Opaque
      | Some [] -> loop recursive rest (* constant branch *)
      | Some positions ->
        loop ({ rb_branch = b; rb_construct_binders = positions } :: recursive)
          rest)
  in
  loop [] branches

(* ------------------------------------------------------------------ *)
(* Engine state *)

type state = {
  mutable apps : app KM.t;
  mutable order : Key.t list; (* registration order (stable iteration) *)
  mutable full : Relation.t KM.t;
      (* merged values: a Diffable application's value is its entry here
         plus its pending runs (see [value]) *)
  mutable delta : Relation.t KM.t; (* last round's deltas *)
  mutable initialized : KS.t; (* apps whose first full evaluation is done *)
  mutable discovered_this_round : bool;
  mutable saw_shrink : bool; (* a value shrank: non-monotone system *)
  strategy : strategy;
  max_rounds : int;
  guard : Guard.t;
  stats : stats;
  timed : bool; (* record round times: a traced env (EXPLAIN ANALYZE) *)
  lookup_constructor : string -> Defs.constructor_def option;
  domains : int; (* parallelism degree for Diffable variant evaluation *)
  worker_caches : Index_cache.t array;
      (* one private index cache per pool worker (length domains - 1);
         fresh per [apply], so an aborted expansion just discards them —
         only the caller's shared cache needs transactional rollback *)
  seen : Tuple_hset.t array;
      (* per-shard dedup sets of parallel variants (index 0 is the main
         domain's): a shard lists a tuple only the first time it emits it *)
}

let find_def st c =
  match st.lookup_constructor c with
  | Some d -> d
  | None -> Eval.runtime_error "unknown constructor %s" c

let register st env (def : Defs.constructor_def) base args =
  let key = { Key.con = def.con_name; base; args } in
  match KM.find_opt key st.apps with
  | Some app -> app
  | None ->
    let base_env = Eval.application_env env def base args in
    let shape =
      match st.strategy with
      | Naive -> Opaque
      | Seminaive -> classify_body def.con_body
    in
    let app =
      {
        key;
        def;
        base_env;
        shape;
        novelty = Tuple_hset.create ();
        pending = [];
        pending_size = 0;
      }
    in
    st.apps <- KM.add key app st.apps;
    st.order <- st.order @ [ key ];
    st.full <- KM.add key (Relation.empty def.con_result) st.full;
    st.delta <- KM.add key (Relation.empty def.con_result) st.delta;
    st.discovered_this_round <- true;
    st.stats.applications <- st.stats.applications + 1;
    if Obs.on () then Obs.Gauge.add (Lazy.force g_apps) 1.;
    app

(* Advance every distinct per-evaluation index cache reachable from the
   registered applications.  The base environments usually all share the
   caller's cache object (environment derivation copies the field), so
   physical dedup keeps each index from being extended twice. *)
let advance_caches st ~old_rel ~delta ~next =
  let seen = ref [] in
  KM.iter
    (fun _ app ->
      let c = app.base_env.Eval.icache in
      if not (List.memq c !seen) then begin
        seen := c :: !seen;
        Index_cache.advance c ~old_rel ~delta ~next
      end)
    st.apps;
  (* Worker caches advance too, or each parallel round after a merge
     would rebuild the full-value indexes from scratch (a merged full
     value is a fresh physical record).  Safe outside the caller's cache
     transaction: the worker caches live and die with this [apply]. *)
  Array.iter
    (fun c -> Index_cache.advance c ~old_rel ~delta ~next)
    st.worker_caches

(* Union sorted runs pairwise, level by level: each tuple is copied
   O(log runs) times, not once per run. *)
let rec union_pairs = function
  | a :: b :: rest -> Relation.Tuple_set.union a b :: union_pairs rest
  | rest -> rest

let rec union_runs = function
  | [] -> Relation.Tuple_set.empty
  | [ run ] -> run
  | runs -> union_runs (union_pairs runs)

(* An application's value as a relation.  A Diffable application's
   pending runs are merged into [full] here: one union of the balanced
   union of the runs, and one cache advance for the merged delta.  A
   round's delta joins the runs only at its commit step, so a read during
   the round sees exactly the previous round's value (Jacobi). *)
let value st app =
  let full = KM.find app.key st.full in
  match app.pending with
  | [] -> full
  | runs ->
    let delta =
      Relation.of_set_unchecked app.def.con_result (union_runs runs)
    in
    let next = Relation.union full delta in
    advance_caches st ~old_rel:full ~delta ~next;
    app.pending <- [];
    app.pending_size <- 0;
    st.full <- KM.add app.key next st.full;
    next

(* Is [app]'s value read once the run converges: the value of [root],
   the application the run converges, or one whose key is checked over
   the whole value? *)
let read_at_convergence root app =
  (not (Schema.key_is_whole_tuple app.def.con_result))
  || Key.compare root app.key = 0

(* Hooks installed while evaluating bodies: selector applications filter;
   constructor applications resolve to the previous round's value (merged
   here if runs are pending), registering unseen keys at bottom. *)
let engine_hooks st base_hooks =
  {
    base_hooks with
    Eval.on_select = (fun env base def args -> Selector.apply env def base args);
    Eval.on_construct =
      (fun env base def args ->
        value st (register st env def base args));
  }

let with_engine_hooks st (env : Eval.env) =
  { env with Eval.hooks = engine_hooks st env.Eval.hooks }

(* Resolve the application a Construct binder refers to, evaluating its
   base and arguments under the engine (previous-round values). *)
let app_of_construct st env = function
  | Ast.Construct (base_range, c, args) ->
    let base = Eval.eval_range env base_range in
    let def = find_def st c in
    let arg_values = Eval.eval_args env args in
    register st env def base arg_values
  | r ->
    Eval.runtime_error "not a constructor application: %a" Ast.pp_range r

(* Scope trace entries to the application under evaluation, so EXPLAIN
   groups the recorded pipelines per constructor. *)
let traced (env : Eval.env) (app : app) f =
  match env.Eval.trace with
  | Some tr ->
    Dc_exec.Ir.Trace.scoped tr (Fmt.str "fixpoint %s" app.def.con_name) f
  | None -> f ()

(* Naive evaluation of one application's whole body. *)
let eval_full st app =
  let env = with_engine_hooks st app.base_env in
  st.stats.body_evaluations <-
    st.stats.body_evaluations + List.length app.def.con_body;
  traced env app (fun () ->
      Eval.eval_comp ~schema:app.def.con_result env app.def.con_body)

(* Main-domain half of one semi-naive variant: resolve the construct
   binders' applications (this may [register] new ones and merge the
   values read whole — all state mutation stays here), bind the
   non-delta occurrences to their values, and rewrite the branch so
   every construct binder ranges over a synthetic [__fix_N] relation
   name.  The delta occurrence is left as a named hole: the caller binds
   it to the whole delta (sequential) or to one hash shard per domain
   (parallel). *)
let prep_variant st app (rb : rec_branch) delta_pos =
  let env = ref (with_engine_hooks st app.base_env) in
  let counter = ref 0 in
  let hole = ref None in
  let binders =
    List.mapi
      (fun i (v, r) ->
        if List.mem i rb.rb_construct_binders then begin
          let a = app_of_construct st !env r in
          let name = Fmt.str "__fix_%d" !counter in
          incr counter;
          if i = delta_pos then hole := Some (name, KM.find a.key st.delta)
          else env := Eval.bind_rel !env name (value st a);
          (v, Ast.Rel name)
        end
        else (v, r))
      rb.rb_branch.binders
  in
  let dname, drel =
    match !hole with
    | Some h -> h
    | None -> Eval.runtime_error "delta position is not a construct binder"
  in
  (!env, { rb.rb_branch with binders }, dname, drel)

(* Shard the variant's delta across the domain pool?  Only when a degree
   is configured, the delta amortizes the partition/merge barrier, and
   nothing forces single-domain execution (EXPLAIN traces and the
   per-row profiler keep global state; a nested fixpoint on a worker
   domain just runs inline). *)
let par_ok st (app : app) drel =
  st.domains > 1
  && Domain.is_main_domain ()
  && app.base_env.Eval.trace = None
  && (not !Dc_exec.Ir.profiling)
  && Relation.cardinal drel >= Par.seq_cutoff ()

let prefer_real = function
  | Guard.Exhausted (Guard.Cancelled, _) -> false
  | _ -> true

(* One semi-naive variant: branch [rb] with the construct binder at
   [delta_pos] bound to the delta of its key, the others to full.  Every
   tuple the variant emits goes to [visit], on the main domain.

   Parallel case: the delta is hash-partitioned, each domain evaluates
   the branch over its shard — probing the *frozen* full values through
   its private index cache — into a private list, deduplicated by its
   own shard set, and after the barrier the main domain visits the
   lists ([classify_branch] guarantees the body is construct-free, so
   workers never touch engine state or the novelty table). *)
let eval_variant st app (rb : rec_branch) delta_pos visit =
  let env, branch, dname, drel = prep_variant st app rb delta_pos in
  st.stats.body_evaluations <- st.stats.body_evaluations + 1;
  if not (par_ok st app drel) then
    let env = Eval.bind_rel env dname drel in
    traced env app (fun () ->
        Eval.eval_branch env branch ~emit:(fun () t -> visit t) ())
  else begin
    let shards = Relation.partition_hash ~shards:st.domains drel in
    let outs =
      Par.map ~shards:st.domains
        ~on_first_error:(fun _ -> Guard.cancel st.guard)
        ~prefer:prefer_real
        (fun i ->
          let seen = st.seen.(i) in
          Tuple_hset.clear seen;
          let env = Eval.bind_rel env dname shards.(i) in
          let env =
            if i = 0 then env
            else { env with Eval.icache = st.worker_caches.(i - 1) }
          in
          Eval.eval_branch env branch
            ~emit:(fun acc t -> if Tuple_hset.add seen t then t :: acc else acc)
            [])
    in
    let t_merge = Obs.now_ms () in
    Array.iter (List.iter visit) outs;
    if Obs.on () then
      Par.observe_round
        ~shard_sizes:(Array.map Relation.cardinal shards)
        ~merge_ms:(Obs.now_ms () -. t_merge)
  end

(* A round's update to one application, applied at the commit step. *)
type update =
  | Replace of Relation.t * Relation.t * bool
      (* a naive evaluation: the new value, its delta over the old one,
         and whether it grew (monotone) *)
  | Extend of Relation.Tuple_set.t * int
      (* a semi-naive round: the sorted new tuples and their number *)

(* One Jacobi round over the applications registered at round start.
   Evaluations read the previous round's values and deltas; updates are
   applied at the end (new registrations during the round keep their bottom
   entries and are evaluated from the next round on).  [root] is the
   application the run converges.  Returns whether any value changed. *)
let round st root =
  let changed = ref false in
  let round_delta = ref 0 in
  let produced size =
    if size > 0 then begin
      st.stats.tuples_produced <- st.stats.tuples_produced + size;
      round_delta := !round_delta + size
    end
  in
  let keys = st.order in
  let updates =
    List.map
      (fun key ->
        let app = KM.find key st.apps in
        (* Opaque and first evaluations: nothing is pending, so [full] is
           the value. *)
        let naive () =
          let full = KM.find key st.full in
          let v = eval_full st app in
          st.stats.tuples_derived <-
            st.stats.tuples_derived + Relation.cardinal v;
          let delta = Relation.diff v full in
          let size = Relation.cardinal delta in
          produced size;
          (full, v, delta, size)
        in
        let update =
          match app.shape with
          | Opaque ->
            let full, v, delta, _ = naive () in
            (* possibly non-monotone: watch for shrinking values *)
            let grew = Relation.subset full v in
            if not grew then st.saw_shrink <- true;
            if not (Relation.equal v full) then changed := true;
            Replace (v, delta, grew)
          | Diffable _ when not (KS.mem key st.initialized) ->
            let _, v, delta, size = naive () in
            Relation.iter (fun t -> ignore (Tuple_hset.add app.novelty t)) v;
            if size > 0 then changed := true;
            Replace (v, delta, true)
          | Diffable recursive_branches ->
            (* One novelty-table probe per emitted tuple: a repeat within
               the round is dropped, a rediscovery counts as derived, and
               only a tuple the table lacks joins the delta. *)
            let table = app.novelty in
            let schema = app.def.con_result in
            Tuple_hset.next_round table;
            let derived = ref 0 and size = ref 0 and news = ref [] in
            let visit t =
              match Tuple_hset.visit table t with
              | Tuple_hset.Repeat -> ()
              | Tuple_hset.Known -> incr derived
              | Tuple_hset.Fresh ->
                assert (Tuple.well_typed schema t);
                incr derived;
                incr size;
                news := t :: !news
            in
            List.iter
              (fun rb ->
                List.iter
                  (fun pos -> eval_variant st app rb pos visit)
                  rb.rb_construct_binders)
              recursive_branches;
            st.stats.tuples_derived <- st.stats.tuples_derived + !derived;
            produced !size;
            if !size > 0 then changed := true;
            Extend (Relation.Tuple_set.of_list !news, !size)
        in
        (app, update))
      keys
  in
  List.iter
    (fun (app, update) ->
      if !Guard.Failpoint.armed then
        Guard.Failpoint.hit ~guard:st.guard "fixpoint.commit";
      let key = app.key in
      let delta =
        match update with
        | Replace (v, d, monotone) ->
          (* Delta-advance the cached access paths before the old value
             becomes unreachable: every index built on it is extended with
             the round's delta and re-keyed to the new value, so next
             round's evaluations hit warm indexes.  Sound only for
             monotone updates (v = old ∪ d); shrinking Opaque values just
             fall out of the cache and are rebuilt. *)
          if monotone then
            advance_caches st ~old_rel:(KM.find key st.full) ~delta:d ~next:v;
          st.full <- KM.add key v st.full;
          d
        | Extend (news, size) ->
          (* The delta joins the pending runs; [full] is merged only when
             read ([value]) or, for a value convergence reads, once the
             pending tuples reach the merged value's size (the table
             holds both), which bounds the merges at O(log n) and what
             they copy at O(n log n). *)
          if size > 0 then begin
            app.pending <- news :: app.pending;
            app.pending_size <- app.pending_size + size;
            if
              read_at_convergence root app
              && 2 * app.pending_size >= Tuple_hset.count app.novelty
            then ignore (value st app)
          end;
          Relation.of_set_unchecked app.def.con_result news
      in
      st.initialized <- KS.add key st.initialized;
      st.delta <- KM.add key delta st.delta)
    updates;
  st.stats.round_deltas <- !round_delta :: st.stats.round_deltas;
  !changed

(* Every application's value, every pending run merged. *)
let values st =
  KM.iter (fun _ app -> ignore (value st app)) st.apps;
  st.full

(* Run to convergence from the current state. *)
let run st root_key =
  (* Period-2 oscillation detection for unchecked non-monotone systems
     (only armed once a value has shrunk — monotone systems never do). *)
  let prev2 = ref None in
  let rec loop () =
    if st.stats.rounds >= st.max_rounds then
      divergence "no fixpoint after %d rounds (max_rounds exceeded)"
        st.max_rounds;
    Guard.round st.guard ~site:"fixpoint.round";
    (* A value captured before the first shrink may lack pending runs; it
       can only be smaller, so that delays a detection by a round, never
       fakes one. *)
    let before = if st.saw_shrink then values st else st.full in
    st.discovered_this_round <- false;
    let observing = Obs.on () in
    let timed = observing || st.timed in
    let t0 = if timed then Obs.now_ms () else 0. in
    let changed = round st root_key in
    if timed then begin
      let dt = Obs.now_ms () -. t0 in
      st.stats.round_times <- dt :: st.stats.round_times;
      if observing then begin
        let delta =
          match st.stats.round_deltas with d :: _ -> d | [] -> 0
        in
        Obs.Counter.inc (Lazy.force m_rounds);
        Obs.Histogram.observe (Lazy.force m_round_ms) dt;
        Obs.Histogram.observe (Lazy.force m_round_delta) (float_of_int delta);
        Obs.Gauge.add (Lazy.force g_tuples) (float_of_int delta)
      end
    end;
    st.stats.rounds <- st.stats.rounds + 1;
    if changed || st.discovered_this_round then begin
      if st.saw_shrink then begin
        (match !prev2 with
        | Some older when KM.equal Relation.equal older (values st) ->
          divergence
            "constructor system oscillates with period 2 (non-monotone \
             definition, cf. the 'nonsense' example of paper 3.3)"
        | _ -> ());
        prev2 := Some before
      end;
      loop ()
    end
  in
  loop ();
  (* Converged.  The novelty tables are done: give their slots back before
     the final merge builds the result.  Only the root's value is read,
     plus any value whose key is not the whole tuple: bodies are
     evaluated unchecked, so its key constraint is checked here, over
     the whole value.  Every other value's runs are dropped unmerged. *)
  KM.iter (fun _ app -> Tuple_hset.release app.novelty) st.apps;
  Array.iter Tuple_hset.release st.seen;
  KM.iter
    (fun _ app ->
      if not (read_at_convergence root_key app) then begin
        app.pending <- [];
        app.pending_size <- 0
      end
      else if Schema.key_is_whole_tuple app.def.con_result then
        ignore (value st app)
      else Relation.check_key (value st app))
    st.apps;
  KM.find root_key st.full

(* ------------------------------------------------------------------ *)
(* Public entry points *)

let default_max_rounds = 100_000

(* Apply constructor [def] to [base] with [args]; the full §3.2 system is
   discovered and iterated.  [env] supplies global relations plus selector
   and constructor definitions (through its hooks' lookups), and its guard
   governs the expansion, so a limited evaluation bounds its constructor
   expansions without every hook having to thread the guard explicitly. *)
let apply ?(strategy = Seminaive) ?(max_rounds = default_max_rounds) ?stats env
    (def : Defs.constructor_def) base args =
  let stats = Option.value stats ~default:(fresh_stats ()) in
  let domains = Par.domains () in
  let st =
    {
      apps = KM.empty;
      order = [];
      full = KM.empty;
      delta = KM.empty;
      initialized = KS.empty;
      discovered_this_round = false;
      saw_shrink = false;
      strategy;
      max_rounds;
      guard = env.Eval.guard;
      stats;
      timed = Option.is_some env.Eval.trace;
      lookup_constructor = env.Eval.hooks.Eval.constructor_def;
      domains;
      worker_caches =
        Array.init (max 0 (domains - 1)) (fun _ -> Index_cache.create ());
      seen = Array.init domains (fun _ -> Tuple_hset.create ());
    }
  in
  (* Snapshot the live gauges before this application registers anything:
     an aborted expansion rolls the database back (index-cache journal
     below), so the gauges must roll back with it or SHOW METRICS after a
     [Guard.Exhausted] trip would report tuples the database no longer
     holds (satellite fix of issue 4). *)
  let restore_gauges =
    if not (Obs.on ()) then Fun.id
    else begin
      let apps0 = Obs.Gauge.value (Lazy.force g_apps) in
      let tuples0 = Obs.Gauge.value (Lazy.force g_tuples) in
      fun () ->
        Obs.Gauge.set (Lazy.force g_apps) apps0;
        Obs.Gauge.set (Lazy.force g_tuples) tuples0
    end
  in
  try
  let app = register st env def base args in
  (* Atomicity of constructor expansion: the rounds mutate the shared
     index cache in place ([advance_caches]); if any guard, failpoint, or
     evaluation error aborts the fixpoint, the cache transaction rolls
     every such mutation back, so callers observe all-or-nothing. *)
  Index_cache.protect env.Eval.icache (fun () -> run st app.key)
  with e ->
    restore_gauges ();
    raise e
