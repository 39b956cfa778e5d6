(* Multi-session serving layer over one versioned database.

   Concurrency model (single-writer / multi-reader, MVCC-lite):

   - Read statements (QUERY/PRINT/SHOW SNAPSHOT/BEGIN/COMMIT) pin an
     immutable published {!Dc_core.Snapshot} — the latest per statement,
     or one held across an explicit BEGIN ... COMMIT transaction — and
     evaluate it on a pool worker domain via [Par.run].  Session threads
     are systhreads sharing the main domain's runtime lock, so reads
     that stayed on them would interleave, not parallelize; shipping the
     closure to a domain makes N sessions' reads truly concurrent over
     the frozen snapshot.  (Inside the shipped closure the constructor
     fixpoint's own [Par.map] degrades inline — parallelism is spent
     across readers, not within one read.)  The pool is used for
     nothing else: the writer's view maintenance runs every pass on the
     writer thread, whatever the degree.

   - Write statements (INSERT/DELETE/assignment/MATERIALIZE/DDL) are
     serialized through one writer thread: the session enqueues the
     statement and blocks until the writer has run it through the
     database's single commit point and published the next snapshot.
     One writer means no write-write races and no locking inside the
     storage spine itself.

   - Group commit: when serving durably, the writer drains its queue
     into a batch and runs the whole batch under [Durable.group] — every
     commit's WAL record is buffered and one [Wal.append_batch] fsync
     makes them all durable.  A session is released ([ack]) only after
     that shared fsync, so the per-client durability contract is
     unchanged while the fsync cost is amortized across the batch.  If
     the batch flush truly fails, each job whose statement had
     "succeeded" in memory is poisoned with the flush error instead.

   - Admission control: a bounded session count, plus per-session
     {!Dc_guard.Guard.limits} under which every statement of that
     session evaluates (the server-level defaults apply when a session
     doesn't bring its own).

   - Statement cache: a served QUERY ({!query_string}) is compiled once
     per statement shape and catalog version — the paper's logical access
     path, "a compiled procedure with dummy constants" (§4) — and every
     later statement of that shape binds its own literals into the cached
     form instead of being parsed, lowered and typechecked again.

   Observability: [dc_server_sessions], [dc_server_queue_depth],
   [dc_server_commits_total], [dc_server_statements_total{kind}], the
   [dc_server_statement_ms{kind}] latency histograms and
   [dc_server_stmt_cache_total{result}]. *)

open Dc_core
module Guard = Dc_guard.Guard
module Obs = Dc_obs.Obs
module Durable = Dc_wal.Durable

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Instruments *)

let g_sessions = lazy (Obs.Gauge.make "dc_server_sessions")
let g_queue = lazy (Obs.Gauge.make "dc_server_queue_depth")
let c_commits = lazy (Obs.Counter.make "dc_server_commits_total")

let c_statements kind =
  Obs.Counter.make ~labels:[ ("kind", kind) ] "dc_server_statements_total"

let h_latency kind =
  Obs.Histogram.make ~labels:[ ("kind", kind) ] "dc_server_statement_ms"

let c_cache result =
  lazy (Obs.Counter.make ~labels:[ ("result", result) ] "dc_server_stmt_cache_total")

let c_cache_hit = c_cache "hit"
let c_cache_miss = c_cache "miss"
let c_cache_evict = c_cache "evict"
let c_reads = lazy (c_statements "read")
let c_writes = lazy (c_statements "write")
let h_read_ms = lazy (h_latency "read")
let h_write_ms = lazy (h_latency "write")

(* ------------------------------------------------------------------ *)
(* Statement cache

   Served QUERY statements compiled once per (catalog version, statement
   shape): the shape ({!Dc_lang.Shape}) is the token stream with the
   literals a column types lifted out, and an entry is the
   {!Dc_compile.Planner.prepared} form of the lifted statement: the
   planner's decision and its method — a static plan, the direct
   fixpoint, the closure operator, or the capture rule compiled for the
   binding pattern, whose lifted literals become the traversal's source
   or the magic seed at bind time.  An entry holds only catalog-level data — the lifted form, its
   decision, its result schema — and never a relation or a snapshot, so
   it pins no old version.  Registering a maintained view moves the
   catalog version, so a form never outlives the decision to leave an
   application to its view.  Writes leave the catalog version alone and
   keep every entry live; a catalog change moves the version, and the
   entries of the old version age out of the bounded table. *)

module Key = struct
  type t = { catalog : int; shape : string }

  let equal a b = a.catalog = b.catalog && String.equal a.shape b.shape
  let hash k = Hashtbl.hash k.shape + k.catalog
end

module Forms = Hashtbl.Make (Key)

(* Fixed bounds on what the cache holds, evicted oldest first: 256
   forms and 1 MiB of shape text (a form's size follows its statement's).
   A served workload has a handful of shapes; the bounds only cap what a
   client sending ever new, or huge, statements can make the server
   hold. *)
let cache_capacity = 256
let cache_shape_bytes = 1 lsl 20

type cache = {
  cm : Mutex.t;
  forms : Dc_compile.Planner.prepared Forms.t;
  order : Key.t Queue.t; (* insertion order, oldest first *)
  mutable bytes : int; (* shape text held *)
}

let cache_find c key = Mutex.protect c.cm (fun () -> Forms.find_opt c.forms key)

let cache_add c (key : Key.t) form =
  if String.length key.shape <= cache_shape_bytes then
    Mutex.protect c.cm (fun () ->
        if not (Forms.mem c.forms key) then begin
          Forms.add c.forms key form;
          Queue.add key c.order;
          c.bytes <- c.bytes + String.length key.shape;
          while
            Forms.length c.forms > cache_capacity || c.bytes > cache_shape_bytes
          do
            let old = Queue.pop c.order in
            Forms.remove c.forms old;
            c.bytes <- c.bytes - String.length old.shape;
            if Obs.on () then Obs.Counter.inc (Lazy.force c_cache_evict)
          done
        end)

(* ------------------------------------------------------------------ *)
(* Writer thread and job queue *)

type job = {
  run : unit -> unit;
      (* execute the statement, capturing result or exception into the
         submitter's slot; never raises *)
  ack : unit -> unit;
      (* release the blocked submitter — called only after the batch's
         shared fsync (or immediately when not durable) *)
  poison : exn -> unit;
      (* batch flush failed: a captured in-memory success is not durable,
         replace it with the flush error (captured failures keep their
         own exception — their commit rolled back and logged nothing) *)
}

type t = {
  db : Database.t;
  wal : Durable.t option; (* durability: closed (final checkpoint) on shutdown *)
  max_sessions : int;
  default_limits : Guard.limits;
  m : Mutex.t; (* guards queue, session count, shutdown flag *)
  job_ready : Condition.t;
  queue : job Queue.t;
  mutable session_count : int;
  mutable next_session : int;
  mutable stopping : bool;
  mutable writer : Thread.t option;
  mutable writer_id : int;
  cache : cache;
}

(* Bound on jobs drained into one group: keeps worst-case ack latency
   for the first job in a batch proportional to the batch, not to an
   unboundedly deep queue. *)
let max_group = 128

(* Drain a batch of enqueued jobs, run them all (as one group commit
   when durable), then ack every submitter.  Jobs transport their own
   result/exception back to the submitting session, so the writer loop
   never dies. *)
let writer_loop srv () =
  let rec loop () =
    Mutex.lock srv.m;
    while Queue.is_empty srv.queue && not srv.stopping do
      Condition.wait srv.job_ready srv.m
    done;
    if Queue.is_empty srv.queue && srv.stopping then Mutex.unlock srv.m
    else begin
      let batch = ref [] in
      let n = ref 0 in
      while !n < max_group && not (Queue.is_empty srv.queue) do
        batch := Queue.pop srv.queue :: !batch;
        incr n
      done;
      let batch = List.rev !batch in
      if Obs.on () then
        Obs.Gauge.set (Lazy.force g_queue)
          (float_of_int (Queue.length srv.queue));
      Mutex.unlock srv.m;
      (try
         match srv.wal with
         | Some d ->
           Durable.group d (fun () -> List.iter (fun j -> j.run ()) batch)
         | None -> List.iter (fun j -> j.run ()) batch
       with e ->
         (* only the group flush can raise — every [run] captures its
            own exceptions *)
         List.iter (fun j -> j.poison e) batch);
      List.iter (fun j -> j.ack ()) batch;
      loop ()
    end
  in
  loop ()

let create ?(max_sessions = 64) ?(limits = Guard.no_limits) ?wal db =
  let srv =
    {
      db;
      wal;
      max_sessions;
      default_limits = limits;
      m = Mutex.create ();
      job_ready = Condition.create ();
      queue = Queue.create ();
      session_count = 0;
      next_session = 1;
      stopping = false;
      writer = None;
      writer_id = -1;
      cache =
        {
          cm = Mutex.create ();
          forms = Forms.create 16;
          order = Queue.create ();
          bytes = 0;
        };
    }
  in
  let th = Thread.create (writer_loop srv) () in
  srv.writer <- Some th;
  srv.writer_id <- Thread.id th;
  srv

let db srv = srv.db
let session_count srv = Mutex.protect srv.m (fun () -> srv.session_count)

(* Serialize [f] through the writer thread and wait for its result.
   Called from the writer thread itself (a job spawning sub-work), run
   inline — blocking would deadlock the only writer. *)
let submit (srv : t) (f : unit -> 'a) : 'a =
  if Thread.id (Thread.self ()) = srv.writer_id then
    (* a job spawning sub-work runs inline (blocking would deadlock the
       only writer); it joins the currently open commit group, and the
       enclosing job's ack still waits for the shared fsync *)
    f ()
  else begin
    let m = Mutex.create () in
    let done_ = Condition.create () in
    let result : ('a, exn) Result.t option ref = ref None in
    let acked = ref false in
    let job =
      {
        run =
          (fun () ->
            let r =
              match f () with v -> Ok v | exception e -> Result.Error e
            in
            Mutex.protect m (fun () -> result := Some r));
        poison =
          (fun e ->
            Mutex.protect m (fun () ->
                match !result with
                | Some (Result.Error _) -> ()
                | Some (Ok _) | None -> result := Some (Result.Error e)));
        ack =
          (fun () ->
            Mutex.protect m (fun () -> acked := true);
            Condition.signal done_);
      }
    in
    Mutex.lock srv.m;
    if srv.stopping then begin
      Mutex.unlock srv.m;
      error "server is shut down"
    end;
    Queue.add job srv.queue;
    if Obs.on () then
      Obs.Gauge.set (Lazy.force g_queue)
        (float_of_int (Queue.length srv.queue));
    Condition.signal srv.job_ready;
    Mutex.unlock srv.m;
    Mutex.lock m;
    while not !acked do
      Condition.wait done_ m
    done;
    Mutex.unlock m;
    match !result with
    | Some (Ok v) -> v
    | Some (Result.Error e) -> raise e
    | None -> error "writer dropped the job"
  end

let shutdown srv =
  Mutex.lock srv.m;
  srv.stopping <- true;
  Condition.signal srv.job_ready;
  Mutex.unlock srv.m;
  match srv.writer with
  | Some th ->
    (* the writer drains every queued job before exiting, so no commit is
       cut off mid-flight; only then is the WAL checkpointed and closed *)
    Thread.join th;
    srv.writer <- None;
    Option.iter Durable.close srv.wal
  | None -> ()

(* Durability-first constructor: recover [dir] (creating it when new) and
   serve the recovered database; [shutdown] then closes with a final
   checkpoint. *)
let open_durable ?max_sessions ?(limits = Guard.no_limits) ?checkpoint_every
    dir =
  let db = Database.create ~limits () in
  let policy =
    Option.map
      (fun n ->
        { Durable.cp_records = Some n; cp_bytes = None; cp_seconds = None })
      checkpoint_every
  in
  let wal = Durable.open_dir ~db ?policy dir in
  create ?max_sessions ~limits ~wal db

let durable srv = srv.wal

(* ------------------------------------------------------------------ *)
(* Sessions *)

type session = {
  server : t;
  id : int;
  env : Dc_lang.Elaborate.env;
      (* private elaboration state: output buffer, pinned transaction
         snapshot, session-local type aliases.  Only ever touched by the
         session's own statement — reads on the session thread, writes
         inside the writer job while the session blocks — so it is never
         accessed from two threads at once. *)
  limits : Guard.limits;
  mutable open_ : bool;
}

let open_session ?limits srv =
  Mutex.lock srv.m;
  if srv.stopping then begin
    Mutex.unlock srv.m;
    error "server is shut down"
  end;
  if srv.session_count >= srv.max_sessions then begin
    let n = srv.session_count in
    Mutex.unlock srv.m;
    error "too many sessions (%d open, max %d)" n srv.max_sessions
  end;
  srv.session_count <- srv.session_count + 1;
  let id = srv.next_session in
  srv.next_session <- id + 1;
  Mutex.unlock srv.m;
  if Obs.on () then Obs.Gauge.add (Lazy.force g_sessions) 1.;
  {
    server = srv;
    id;
    env = Dc_lang.Elaborate.create srv.db;
    limits = Option.value limits ~default:srv.default_limits;
    open_ = true;
  }

let close_session s =
  if s.open_ then begin
    s.open_ <- false;
    Mutex.protect s.server.m (fun () ->
        s.server.session_count <- s.server.session_count - 1);
    if Obs.on () then Obs.Gauge.add (Lazy.force g_sessions) (-1.)
  end

let session_id s = s.id

(* A statement the session thread can serve from a snapshot without the
   writer: everything {!Dc_lang.Elaborate.read_only} except EXPLAIN
   (its operator profiling is process-global state) and SET PARALLEL
   (global configuration) — those serialize with the writes. *)
let session_local (d : Dc_lang.Surface.decl) =
  match d with
  | D_query _ | D_print _ | D_show_snapshot | D_begin | D_commit
  | D_show_metrics | D_type _ ->
    true
  | _ -> false

(* Statements that observe data through a snapshot and therefore want
   per-statement pinning when no transaction is open: EXPLAIN plans and
   runs over the same snapshot, under the same limits, as the session's
   QUERY. *)
let wants_snapshot (d : Dc_lang.Surface.decl) =
  match d with
  | D_query _ | D_print _ | D_show_snapshot | D_explain _ | D_explain_analyze _
    ->
    true
  | _ -> false

(* The statement snapshot carries the session's admission-control
   limits, so snapshot reads evaluate under the per-session guard; BEGIN
   pins it for the whole transaction. *)
let session_snapshot s =
  let snap = Database.snapshot s.server.db in
  if s.limits = Guard.no_limits then snap
  else { snap with Snapshot.state = { snap.state with limits = s.limits } }

let execute_decl s (d : Dc_lang.Surface.decl) =
  if not s.open_ then error "session %d is closed" s.id;
  let t0 = if Obs.on () then Obs.now_ms () else 0. in
  let read = session_local d in
  let exec () = Dc_lang.Elaborate.execute_decl s.env d in
  let exec =
    (* pin the snapshot on the session thread, so "latest" means latest
       at submission; an open BEGIN's pinned snapshot takes precedence
       inside [with_snapshot] *)
    if wants_snapshot d then
      let snap = session_snapshot s in
      fun () -> Dc_lang.Elaborate.with_snapshot s.env snap exec
    else exec
  in
  (try
     match d with
     | D_begin -> Dc_lang.Elaborate.begin_transaction s.env (session_snapshot s)
     | _ when not read ->
       submit s.server (fun () ->
           exec ();
           if Obs.on () then Obs.Counter.inc (Lazy.force c_commits))
     | _ when wants_snapshot d ->
       (* evaluate on a pool worker domain: snapshot reads from N sessions
          run truly in parallel instead of interleaving on the main
          domain's runtime lock *)
       Dc_par.Par.run exec
     | _ -> exec ()
   with e ->
     (* keep the session clean: a failed statement must not leak its
        partial output into the next statement's result *)
     ignore (Dc_lang.Elaborate.drain_output s.env);
     raise e);
  if Obs.on () then begin
    let ms = Obs.now_ms () -. t0 in
    if read then begin
      Obs.Counter.inc (Lazy.force c_reads);
      Obs.Histogram.observe (Lazy.force h_read_ms) ms
    end
    else begin
      Obs.Counter.inc (Lazy.force c_writes);
      Obs.Histogram.observe (Lazy.force h_write_ms) ms
    end
  end;
  Dc_lang.Elaborate.drain_output s.env

(* Execute a parsed program statement by statement.  Unlike
   {!Dc_lang.Elaborate.run} there is no whole-program constructor
   grouping across other statements, but consecutive CONSTRUCTOR
   declarations are still registered as one (mutually recursive) group —
   through the writer, like any DDL. *)
let execute_program s (p : Dc_lang.Surface.program) =
  if not s.open_ then error "session %d is closed" s.id;
  let buf = Buffer.create 256 in
  let flush_group pending =
    match pending with
    | [] -> ()
    | group ->
      let defs =
        List.rev_map (Dc_lang.Elaborate.lower_constructor s.env) group
      in
      submit s.server (fun () ->
          Database.define_constructors s.server.db defs;
          if Obs.on () then Obs.Counter.inc (Lazy.force c_commits))
  in
  let pending =
    List.fold_left
      (fun pending (d : Dc_lang.Surface.decl) ->
        match d with
        | D_constructor c -> c :: pending
        | d ->
          flush_group pending;
          Buffer.add_string buf (execute_decl s d);
          [])
      [] p
  in
  flush_group pending;
  Buffer.contents buf

let execute s src = execute_program s (Dc_lang.Parser.parse src)

(* Run session work under the session's guard limits: a fresh guard per
   statement, like [Database.query]'s default, but from the session's
   admission-control budgets. *)
let session_guard s = Guard.of_limits s.limits

(* The snapshot a session's read observes: its pinned transaction
   snapshot, else the latest published one. *)
let read_snapshot s =
  match Dc_lang.Elaborate.pinned s.env with
  | Some snap -> snap
  | None -> Database.snapshot s.server.db

(* Run a prepared form with its parameter values over [snap] under the
   session's guard, on a pool worker domain. *)
let run_form s snap form values =
  Dc_par.Par.run (fun () ->
      ( Dc_compile.Planner.run_prepared form
          (Snapshot.eval_env ~guard:(session_guard s) snap)
          values,
        Snapshot.version snap ))

let query s range =
  if not s.open_ then error "session %d is closed" s.id;
  let snap = read_snapshot s in
  run_form s snap
    (Dc_compile.Planner.prepare (Snapshot.typecheck_env snap) ~params:[] range)
    []

(* A cache miss: parse, lower against the snapshot's catalog and
   typecheck the statement; then plan the lifted statement, cache the
   form and run it with the statement's literals — one evaluation. *)
let query_uncached s snap key src =
  let shape, tokens, lifted = Dc_lang.Shape.scan_tokens src in
  let one_query tokens =
    match Dc_lang.Parser.parse_tokens tokens with
    | [ Dc_lang.Surface.D_query r ] -> r
    | _ -> error "expected exactly one QUERY statement"
  in
  let lower ?params r =
    Dc_lang.Elaborate.with_snapshot s.env snap (fun () ->
        Dc_lang.Elaborate.lower_query ?params s.env r)
  in
  (* the statement's own names and types fail as they are written *)
  Snapshot.check_query snap (lower (one_query tokens));
  let params = Dc_lang.Shape.params shape in
  let form =
    Dc_compile.Planner.prepare (Snapshot.typecheck_env snap) ~params
      (lower ~params:(List.map fst params) (one_query lifted))
  in
  cache_add s.server.cache key form;
  run_form s snap form shape.values

let query_string s src =
  if not s.open_ then error "session %d is closed" s.id;
  let shape = Dc_lang.Shape.scan src in
  let snap = read_snapshot s in
  let key = { Key.catalog = Snapshot.catalog_version snap; shape = shape.key } in
  match cache_find s.server.cache key with
  | Some form ->
    if Obs.on () then Obs.Counter.inc (Lazy.force c_cache_hit);
    run_form s snap form shape.values
  | None ->
    if Obs.on () then Obs.Counter.inc (Lazy.force c_cache_miss);
    query_uncached s snap key src
