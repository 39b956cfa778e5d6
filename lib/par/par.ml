(* Process-global domain pool + sharded map (runtime kernel).

   One pool for the whole process: worker domains are spawned lazily the
   first time a [map] needs them and then parked on a condition variable
   between rounds, so the per-round cost of parallelism is a wakeup, not
   a spawn.  Shard 0 always runs inline on the submitting domain — with
   P configured domains we spawn P-1 workers and keep the caller busy.

   Exception protocol: a failing shard never tears the barrier down
   early (sibling shards own shared mutable state such as per-shard
   index caches that must quiesce before the caller unwinds).  Each
   shard's exception is parked in a slot; [on_first_error] fires once so
   the caller can cancel a shared guard and drain the stragglers fast;
   after the barrier the lowest-numbered preferred exception is
   re-raised with its original backtrace. *)

(* ------------------------------------------------------------------ *)
(* Configuration *)

let clamp_domains n = if n < 1 then 1 else if n > 64 then 64 else n

let default_domains () =
  match Sys.getenv_opt "DC_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> clamp_domains n
    | _ -> max 1 (Domain.recommended_domain_count () - 1))
  | None -> max 1 (Domain.recommended_domain_count () - 1)

let domains_ref = ref (default_domains ())
let domains () = !domains_ref
let set_domains n = domains_ref := clamp_domains n
let reset_domains () = domains_ref := default_domains ()

let with_domains p f =
  let saved = !domains_ref in
  set_domains p;
  Fun.protect ~finally:(fun () -> domains_ref := saved) f

let seq_cutoff_ref = ref 64
let seq_cutoff () = !seq_cutoff_ref
let set_seq_cutoff n = seq_cutoff_ref := max 0 n

let with_seq_cutoff n f =
  let saved = !seq_cutoff_ref in
  set_seq_cutoff n;
  Fun.protect ~finally:(fun () -> seq_cutoff_ref := saved) f

(* ------------------------------------------------------------------ *)
(* The pool *)

type pool = {
  m : Mutex.t;
  cv : Condition.t; (* signalled when jobs arrive or quit flips *)
  jobs : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t list;
  mutable quit : bool;
}

let pool =
  { m = Mutex.create (); cv = Condition.create (); jobs = Queue.create ();
    workers = []; quit = false }

let worker_loop () =
  let rec next () =
    Mutex.lock pool.m;
    let rec wait () =
      if pool.quit then begin
        Mutex.unlock pool.m;
        None
      end
      else
        match Queue.take_opt pool.jobs with
        | Some job ->
          Mutex.unlock pool.m;
          Some job
        | None ->
          Condition.wait pool.cv pool.m;
          wait ()
    in
    match wait () with
    | None -> ()
    | Some job ->
      (* Jobs wrap their own exception handling; a raise here would be a
         pool bug, not a shard failure.  Never let it kill the worker. *)
      (try job () with _ -> ());
      next ()
  in
  next ()

let pool_size () =
  Mutex.lock pool.m;
  let n = List.length pool.workers in
  Mutex.unlock pool.m;
  n

(* Grow the pool to [n] workers.  Called with [pool.m] held. *)
let ensure_workers_locked n =
  while List.length pool.workers < n do
    pool.workers <- Domain.spawn worker_loop :: pool.workers
  done

let shutdown () =
  Mutex.lock pool.m;
  let ws = pool.workers in
  pool.workers <- [];
  pool.quit <- true;
  Condition.broadcast pool.cv;
  Mutex.unlock pool.m;
  List.iter Domain.join ws;
  Mutex.lock pool.m;
  pool.quit <- false;
  Mutex.unlock pool.m

let () = at_exit shutdown

(* ------------------------------------------------------------------ *)
(* Sharded map *)

let run_seq ~shards f = Array.init shards f

let map ?(on_first_error = fun (_ : exn) -> ()) ?(prefer = fun (_ : exn) -> true)
    ~shards f =
  if shards <= 1 then [| f 0 |]
  else if not (Domain.is_main_domain ()) then
    (* Nested call from a worker: run inline — queueing would deadlock a
       single-worker pool, and the outer map already owns the domains. *)
    run_seq ~shards f
  else begin
    let results = Array.make shards None in
    let errors = Array.make shards None in
    let first_error = Atomic.make false in
    let remaining = ref (shards - 1) in
    let done_m = Mutex.create () in
    let done_cv = Condition.create () in
    let run i =
      match f i with
      | v -> results.(i) <- Some v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        errors.(i) <- Some (e, bt);
        if not (Atomic.exchange first_error true) then (
          try on_first_error e with _ -> ())
    in
    let job i () =
      run i;
      Mutex.lock done_m;
      decr remaining;
      if !remaining = 0 then Condition.signal done_cv;
      Mutex.unlock done_m
    in
    Mutex.lock pool.m;
    ensure_workers_locked (shards - 1);
    for i = 1 to shards - 1 do
      Queue.add (job i) pool.jobs
    done;
    Condition.broadcast pool.cv;
    Mutex.unlock pool.m;
    run 0;
    Mutex.lock done_m;
    while !remaining > 0 do
      Condition.wait done_cv done_m
    done;
    Mutex.unlock done_m;
    (* The done_m handshake orders every worker's slot writes before the
       reads below. *)
    let reraise (e, bt) = Printexc.raise_with_backtrace e bt in
    let preferred = ref None
    and fallback = ref None in
    Array.iter
      (function
        | Some ((e, _) as slot) ->
          if !fallback = None then fallback := Some slot;
          if !preferred = None && prefer e then preferred := Some slot
        | None -> ())
      errors;
    (match (!preferred, !fallback) with
    | Some slot, _ | None, Some slot -> reraise slot
    | None, None -> ());
    Array.map
      (function
        | Some v -> v
        | None -> assert false (* no error ⇒ every slot was filled *))
      results
  end

(* ------------------------------------------------------------------ *)
(* Task submission *)

(* One closure on one worker, caller blocks.  Unlike [map] the caller
   does no inline work — the whole point is to move [f] onto a worker
   domain so that concurrent [run]s from different systhreads execute
   truly in parallel instead of interleaving on the main domain's
   runtime lock.  With degree P we keep P-1 workers, matching [map]'s
   sizing; degree 1 (or a call from a worker domain, which must never
   block on its own pool) degrades to calling [f] inline. *)
let run f =
  let p = domains () in
  if p <= 1 || not (Domain.is_main_domain ()) then f ()
  else begin
    let m = Mutex.create () in
    let cv = Condition.create () in
    let slot = ref None in
    let job () =
      let r =
        match f () with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock m;
      slot := Some r;
      Condition.signal cv;
      Mutex.unlock m
    in
    Mutex.lock pool.m;
    ensure_workers_locked (p - 1);
    Queue.add job pool.jobs;
    Condition.broadcast pool.cv;
    Mutex.unlock pool.m;
    Mutex.lock m;
    while Option.is_none !slot do
      Condition.wait cv m
    done;
    Mutex.unlock m;
    match !slot with
    | Some (Ok v) -> v
    | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
    | None -> assert false
  end

(* ------------------------------------------------------------------ *)
(* Observability *)

module Obs = Dc_obs.Obs

let m_rounds = lazy (Obs.Counter.make "dc_par_rounds_total")
let m_shard_rows = lazy (Obs.Histogram.make "dc_par_shard_rows")
let m_merge_ms = lazy (Obs.Histogram.make "dc_par_merge_ms")
let m_imbalance = lazy (Obs.Histogram.make "dc_par_imbalance")

let observe_round ~shard_sizes ~merge_ms =
  Obs.Counter.inc (Lazy.force m_rounds);
  let n = Array.length shard_sizes in
  if n > 0 then begin
    let total = Array.fold_left ( + ) 0 shard_sizes in
    let biggest = Array.fold_left max 0 shard_sizes in
    Array.iter
      (fun s -> Obs.Histogram.observe (Lazy.force m_shard_rows) (float_of_int s))
      shard_sizes;
    if total > 0 then
      Obs.Histogram.observe (Lazy.force m_imbalance)
        (float_of_int (biggest * n) /. float_of_int total)
  end;
  Obs.Histogram.observe (Lazy.force m_merge_ms) merge_ms
