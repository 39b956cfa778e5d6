(* The database programming environment: named relation variables plus the
   registries of selector and constructor definitions, with DBPL's checks
   wired in:

   - relation assignment re-validates the §2.2 key constraint;
   - assignment through a selected variable re-validates the selector
     predicate (§2.3);
   - constructor definition runs the static type checker and the §3.3
     positivity check (per dependency SCC), as the DBPL compiler's
     type-checking level does;
   - query evaluation installs the fixpoint semantics for constructor
     applications (§3.2). *)

open Dc_relation
open Dc_calculus
module Guard = Dc_guard.Guard

(* Shared with Snapshot so working-set maps publish without conversion. *)
module SM = Snapshot.SM

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* Durability hooks (the WAL subsystem lives in a higher layer and plugs
   in through closures, like maintainers do).  [wh_append] runs inside
   the commit, after the mutation and maintenance succeeded but BEFORE
   the snapshot is published: it must make the commit durable (append a
   log record for a data commit, or cut a full checkpoint for a catalog
   commit) and may raise to abort — the commit then rolls back and
   nothing is published, so an acknowledged commit is always on stable
   storage.  [wh_published] runs after publication (periodic
   checkpointing); an exception there propagates to the committer but
   the commit stands. *)
type wal_hooks = {
  wh_append :
    version:int ->
    catalog:bool ->
    changes:(string * Tuple.t list * Tuple.t list) list ->
    unit;
  wh_published : version:int -> unit;
}

type view_txn = {
  vt_commit : unit -> unit;
  vt_rollback : unit -> unit;
}

(* What a maintainer maintains, opaque here: the maintenance subsystem
   extends this with its own view type and reads its views back from the
   maintainer list ({!views}), so the list is the one view registry. *)
type view = ..

(* A registered view maintainer (the incremental-maintenance subsystem
   lives in a higher layer, so it plugs in through closures).  [mt_serve]
   answers a constructor application from the maintained extent (or
   declines with [None]); [mt_update] applies one batch of net base
   deltas; [mt_invalidate] marks the view stale (it will refresh on next
   serve); [mt_begin] opens a maintenance transaction — its [vt_rollback]
   makes a failed step atomic, its [vt_commit] keeps the step and drops
   whatever undo state it recorded; [mt_stale]/[mt_freeze]
   publish the view into snapshots ([mt_freeze] returns [None] for a
   stale view — snapshot readers then evaluate the application
   themselves through {!Resolve.application}). *)
type maintainer = {
  mt_name : string;
  mt_view : view;
  mt_application : Ast.range; (* the application Base{c(args)} it extends *)
  mt_depends : string list; (* base relations the view reads *)
  mt_serve : Resolve.serve;
  mt_update : (string * Tuple.t list * Tuple.t list) list -> unit;
      (* (relation, net added, net removed) per base relation *)
  mt_invalidate : unit -> unit;
  mt_begin : unit -> view_txn;
  mt_stale : unit -> bool;
  mt_freeze : unit -> Snapshot.frozen_serve option;
}

(* The database is a versioned store: [published] is the latest committed
   snapshot (immutable, shared by reference with any number of reader
   threads), while [working] is the single writer's state — a value of
   the type a snapshot carries, which {!publish} wraps unchanged.  Every
   mutation funnels through {!commit}, which saves [working] and the
   maintainer list, runs the mutation plus view maintenance, passes the
   one [ivm.commit] failpoint, and atomically publishes the successor
   snapshot. *)
type t = {
  mutable working : Snapshot.state;
  mutable maintainers : maintainer list; (* newest registration first *)
  mutable published : Snapshot.t;
  check_positivity : bool;
  mutable maintain : bool;
      (* SET MAINTAIN ON|OFF: when off, updates invalidate maintained
         views instead of propagating deltas into them *)
  mutable last_stats : Fixpoint.stats option;
  mutable in_commit : bool;
      (* re-entrancy guard: composite operations that call other
         committing operations join the outermost commit *)
  mutable wal : wal_hooks option;
  mutable pending_changes : (string * Tuple.t list * Tuple.t list) list;
      (* net point-update deltas accumulated by the commit in progress,
         in application order — what [wh_append] logs *)
  mutable pending_catalog : bool;
      (* the commit in progress changed the catalog / wholesale-assigned
         a relation: no replayable delta, [wh_append] must checkpoint *)
}

let create ?(strategy = Fixpoint.Seminaive) ?(check_positivity = true)
    ?(limits = Guard.no_limits) () =
  let working =
    {
      Snapshot.catalog = 0;
      rels = SM.empty;
      selectors = SM.empty;
      constructors = SM.empty;
      strategy;
      limits;
    }
  in
  {
    working;
    maintainers = [];
    published =
      { Snapshot.version = 0; state = working; views = []; durable = None };
    check_positivity;
    maintain = true;
    last_stats = None;
    in_commit = false;
    wal = None;
    pending_changes = [];
    pending_catalog = false;
  }

(* ------------------------------------------------------------------ *)
(* Publication *)

let view_of m serve =
  {
    Snapshot.fv_name = m.mt_name;
    fv_application = m.mt_application;
    fv_stale = m.mt_stale ();
    fv_serve = serve;
  }

(* Install the successor snapshot: the working state (persistent maps,
   pointer shares) plus, per Live maintained view, a frozen serve
   closure over a frozen copy of its store.  The final
   [db.published <- snap] is a single word write of an immutable record:
   reader threads always observe either the old or the new snapshot,
   never a mixture. *)
let publish db =
  db.published <-
    {
      db.published with
      Snapshot.version = db.published.version + 1;
      state = db.working;
      views = List.map (fun m -> view_of m (m.mt_freeze ())) db.maintainers;
    }

let snapshot db = db.published
let version db = db.published.Snapshot.version

(* The working state read as a snapshot: the live maintainers'
   applications stand in for frozen views; their extents serve through
   {!eval_env}'s [serve]. *)
let working_snapshot db =
  {
    db.published with
    Snapshot.state = db.working;
    views = List.map (fun m -> view_of m None) db.maintainers;
  }

(* ------------------------------------------------------------------ *)
(* Durability plumbing (driven by the WAL layer, Dc_wal) *)

let set_wal_hooks db hooks = db.wal <- hooks
let durable_lsn db = Option.value db.published.Snapshot.durable ~default:0

(* Refresh the published snapshot's watermark without a version bump:
   recovery and checkpointing adjust it outside any commit, and the next
   {!publish} carries it over. *)
let set_durable_lsn db lsn =
  db.published <-
    {
      db.published with
      Snapshot.durable = (if lsn = 0 then None else Some lsn);
    }

(* Recovery only: rewind/forward the published version counter so a
   replayed commit republishes at exactly the version the log recorded.
   Never call this on a live (serving) database. *)
let restore_version db v =
  db.published <- { db.published with Snapshot.version = v }

(* Record the net delta of a point update for [wh_append]; kept empty
   when no WAL is attached so the non-durable path stays allocation-free. *)
let log_changes db changes =
  if db.wal <> None then db.pending_changes <- db.pending_changes @ changes

let mark_catalog db = if db.wal <> None then db.pending_catalog <- true

(* A commit that changes how statements type or lower: a new catalog
   version (statement caches key on it) and, under a WAL, a checkpoint. *)
let catalog_changed db =
  db.working <- { db.working with catalog = db.working.catalog + 1 };
  mark_catalog db

let bind db name rel =
  db.working <- { db.working with rels = SM.add name rel db.working.rels }

(* The single commit point.  Saves the working state and the maintainer
   list, opens a transaction on every maintainer that reads a touched
   relation, runs the mutation (which may propagate deltas into views),
   passes the [ivm.commit] failpoint (data commits only), makes the
   commit durable when a WAL is attached ([wh_append] —
   append-before-publish), commits the maintainer transactions and
   publishes the successor snapshot.  On any exception — including a
   failed or fault-injected log append — the working state, the
   maintainer list and every touched view roll back to the pre-commit
   state and nothing is published. *)
let commit ?(failpoint = false) ?(touches = []) db mutate =
  if db.in_commit then mutate ()
  else begin
    db.in_commit <- true;
    db.pending_changes <- [];
    db.pending_catalog <- false;
    let saved = db.working and saved_maintainers = db.maintainers in
    let txns =
      List.filter_map
        (fun m ->
          if List.exists (fun n -> List.mem n m.mt_depends) touches then
            Some (m.mt_begin ())
          else None)
        db.maintainers
    in
    let finish () =
      db.pending_changes <- [];
      db.pending_catalog <- false;
      db.in_commit <- false
    in
    match
      let r = mutate () in
      if failpoint && !Guard.Failpoint.armed then
        Guard.Failpoint.hit "ivm.commit";
      (match db.wal with
      | Some h ->
        h.wh_append
          ~version:(db.published.Snapshot.version + 1)
          ~catalog:db.pending_catalog ~changes:db.pending_changes
      | None -> ());
      r
    with
    | r ->
      List.iter (fun tx -> tx.vt_commit ()) txns;
      finish ();
      publish db;
      (match db.wal with
      | Some h -> h.wh_published ~version:db.published.Snapshot.version
      | None -> ());
      r
    | exception e ->
      db.working <- saved;
      db.maintainers <- saved_maintainers;
      List.iter (fun tx -> tx.vt_rollback ()) txns;
      finish ();
      raise e
  end

(* Configuration changes republish so statement snapshots taken after
   them evaluate under the new settings. *)
let set_limits db limits =
  db.working <- { db.working with limits };
  publish db

let limits db = db.working.limits
let last_stats db = db.last_stats
let reset_last_stats db = db.last_stats <- None

(* ------------------------------------------------------------------ *)
(* Maintained views *)

(* (Un)registration changes what future snapshots serve and, under a
   WAL, what recovery must rebuild — so both ride through {!commit} like
   any DDL: the maintainer list is journaled, and the durable layer cuts
   a checkpoint capturing the list's new shape. *)
let register_maintainer db m =
  commit db (fun () ->
      (* latest registration for a name wins (re-MATERIALIZE replaces) *)
      db.maintainers <-
        m
        :: List.filter
             (fun m' -> not (String.equal m'.mt_name m.mt_name))
             db.maintainers;
      catalog_changed db)

let unregister_maintainer db name =
  commit db (fun () ->
      db.maintainers <-
        List.filter (fun m -> not (String.equal m.mt_name name)) db.maintainers;
      catalog_changed db)

let views db = List.rev_map (fun m -> m.mt_view) db.maintainers

let set_maintain db b =
  db.maintain <- b;
  publish db

let invalidate_dependents db name =
  List.iter
    (fun m -> if List.mem name m.mt_depends then m.mt_invalidate ())
    db.maintainers

(* ------------------------------------------------------------------ *)
(* Relation variables *)

let declare db name schema =
  if SM.mem name db.working.rels then error "relation %s already declared" name;
  commit db (fun () ->
      bind db name (Relation.empty schema);
      catalog_changed db)

let get db name =
  match SM.find_opt name db.working.rels with
  | Some r -> r
  | None -> error "unknown relation %s" name

(* Wholesale reassignment: no usable delta, so dependent maintained views
   go stale and refresh on their next serve.  Like every data mutation
   this is one journaled commit — an injected [ivm.commit] fault rolls
   both the binding and the staleness marks back. *)
let set db name rel =
  commit db ~failpoint:true ~touches:[ name ] (fun () ->
      (match SM.find_opt name db.working.rels with
      | None -> catalog_changed db
      | Some old ->
        let was = Relation.schema old and now = Relation.schema rel in
        if not (Schema.compatible was now) then
          error "assignment to %s: incompatible relation type" name;
        (* same-typed values keep the catalog; renamed attributes do not *)
        if not (was == now || Schema.equal was now) then catalog_changed db);
      bind db name rel;
      invalidate_dependents db name;
      (* wholesale assignment has no replayable point delta; the durable
         layer checkpoints instead of logging *)
      mark_catalog db)

let relation_names db = List.map fst (SM.bindings db.working.rels)

(* Apply a multi-relation batch of point updates as ONE commit: the
   bindings are updated first (so maintainers read post-update base
   relations), a single version is published covering the whole batch,
   maintainers see the batch in one [mt_update] call (or are marked
   stale when maintenance is off), and a mid-batch failure rolls the
   entire batch — bindings and every touched view — back.  This is the
   unit of every point update, from an INSERT or DELETE statement to a
   serving writer thread's batch. *)
let update_batch db changes =
  let touches = List.map (fun (n, _, _) -> n) changes in
  commit db ~failpoint:true ~touches (fun () ->
      let applied =
        List.map
          (fun (name, adds, rems) ->
            let old = get db name in
            let after_rem, removed_rev =
              List.fold_left
                (fun (r, acc) t ->
                  if Relation.mem t r then (Relation.remove t r, t :: acc)
                  else (r, acc))
                (old, []) rems
            in
            let updated, added_rev =
              List.fold_left
                (fun (r, acc) t ->
                  if Relation.mem t r then (r, acc)
                  else (Relation.add t r, t :: acc))
                (after_rem, []) adds
            in
            bind db name updated;
            (name, List.rev added_rev, List.rev removed_rev))
          changes
      in
      log_changes db applied;
      let real = List.filter (fun (_, a, r) -> a <> [] || r <> []) applied in
      if real <> [] then
        if db.maintain then
          List.iter
            (fun m ->
              let mine =
                List.filter (fun (n, _, _) -> List.mem n m.mt_depends) real
              in
              if mine <> [] then m.mt_update mine)
            db.maintainers
        else List.iter (fun (n, _, _) -> invalidate_dependents db n) real)

let insert db name tuple = update_batch db [ (name, [ tuple ], []) ]
let insert_all db name tuples = update_batch db [ (name, tuples, []) ]
let delete db name tuple = update_batch db [ (name, [], [ tuple ]) ]

(* ------------------------------------------------------------------ *)
(* Environments: the working state read through {!Snapshot}'s builders,
   with the live maintainers serving and the fixpoint statistics kept
   for [last_stats] *)

let typecheck_env db = Snapshot.typecheck_env (working_snapshot db)

let eval_env ?trace ?guard db =
  Snapshot.eval_env ?trace ?guard
    ~serve:(fun def base args ->
      List.find_map (fun m -> m.mt_serve def base args) db.maintainers)
    ~on_stats:(fun stats -> db.last_stats <- Some stats)
    (working_snapshot db)

(* ------------------------------------------------------------------ *)
(* Definitions *)

let define_selector db (def : Defs.selector_def) =
  (try Typecheck.check_selector_def (typecheck_env db) def
   with Typecheck.Error msg -> error "selector %s: %s" def.sel_name msg);
  commit db (fun () ->
      db.working <-
        {
          db.working with
          selectors = SM.add def.sel_name def db.working.selectors;
        };
      catalog_changed db)

(* Constructors may be mutually recursive, so groups are registered
   atomically: all signatures become visible, then every body is checked,
   then the §3.3 positivity check runs over the whole program.  The
   group rides on {!commit}'s catalog journal: on failure nothing is
   registered and nothing is published. *)
let define_constructors db (defs : Defs.constructor_def list) =
  commit db (fun () ->
      let constructors =
        List.fold_left
          (fun m (d : Defs.constructor_def) -> SM.add d.con_name d m)
          db.working.constructors defs
      in
      db.working <- { db.working with constructors };
      List.iter
        (fun (d : Defs.constructor_def) ->
          try Typecheck.check_constructor_def (typecheck_env db) d
          with Typecheck.Error msg ->
            error "constructor %s: %s" d.con_name msg)
        defs;
      if db.check_positivity then begin
        let all = List.map snd (SM.bindings db.working.constructors) in
        (match Positivity.check_program all with
        | Ok () -> ()
        | Error (v :: _) -> error "%a" Positivity.pp_violation v
        | Error [] -> assert false);
        (* aggregate admission: COUNT/SUM must sit outside recursion,
           recursive MIN/MAX must be premappable — the typed
           [Dc_agg.Agg.Inadmissible] propagates to the caller *)
        Positivity.check_aggregates all
      end;
      catalog_changed db)

let define_constructor db def = define_constructors db [ def ]

let selector db name = SM.find_opt name db.working.selectors
let constructor db name = SM.find_opt name db.working.constructors

let selector_names db = List.map fst (SM.bindings db.working.selectors)
let constructor_names db = List.map fst (SM.bindings db.working.constructors)

(* ------------------------------------------------------------------ *)
(* Queries and assignment *)

let check_query db range =
  Dc_obs.Obs.Span.timed "typecheck" (fun () ->
      Snapshot.check_query (working_snapshot db) range)

let query ?trace ?guard db range =
  check_query db range;
  Dc_obs.Obs.Span.timed "execute" (fun () ->
      Eval.eval_range (eval_env ?trace ?guard db) range)

let eval_formula db formula =
  Typecheck.check_formula (typecheck_env db) [] formula;
  Eval.eval_formula (eval_env db) formula

(* Re-impose a target schema (names, key) on a computed relation, re-running
   the key check — the relational type checker of §2.2. *)
let coerce schema rel =
  if not (Schema.compatible schema (Relation.schema rel)) then
    error "value of type %a cannot be assigned at type %a" Schema.pp
      (Relation.schema rel) Schema.pp schema;
  Relation.of_list schema (Relation.to_list rel)

(* Rel := <range expression> *)
let assign db name range =
  let target = get db name in
  let value = query db range in
  set db name (coerce (Relation.schema target) value)

(* Rel[s(args)] := <range expression>  — the §2.3 selector-guarded
   assignment: every tuple of the right-hand side must satisfy the
   selector predicate. *)
let assign_selected db name ~selector:sel_name ~args range =
  let target = get db name in
  let def =
    match selector db sel_name with
    | Some d -> d
    | None -> error "unknown selector %s" sel_name
  in
  let value = coerce (Relation.schema target) (query db range) in
  let env = eval_env db in
  let arg_values = Eval.eval_args env args in
  let checked =
    Selector.check_assignment env def ~current:target arg_values value
  in
  set db name checked
