(* The durability orchestrator: ties a [Database.t] to a data directory
   holding a checkpoint and a write-ahead log, through the database's
   commit hooks.

   Layout:
     <dir>/checkpoint.dat   magic "DCCKPT01" + framed checkpoint image
     <dir>/wal.log          CRC-framed records since that checkpoint

   Protocol per commit (installed as [Database.wal_hooks]):

   - a data commit appends one WAL record carrying the commit's net
     per-relation deltas and fsyncs it {e before} the snapshot publishes
     — an acknowledged commit is on disk.  Empty deltas still log, so
     durable versions stay consecutive.
   - a catalog-marked commit (DDL, wholesale assignment, MATERIALIZE /
     DROP of a view) has no replayable delta: it writes a full
     checkpoint instead, also pre-publication.
   - after publication, a checkpoint is taken when the [checkpoint_policy]
     says the replay suffix has grown too expensive: too many logged
     records, too many WAL bytes ([Wal.size]), or too much wall time
     since the last checkpoint — whichever criterion trips first.

   A checkpoint is a consistent image of the whole committed state:
   catalog source (re-elaborated through the front end on recovery),
   paged relation extents, and every materialized view's fact store plus
   derivation counts — so recovery re-registers maintainers without
   refixpointing.  It is written to checkpoint.tmp, fsynced, renamed
   over checkpoint.dat, the directory fsynced, and only then is the WAL
   truncated; a crash anywhere in that sequence leaves either the old
   (checkpoint ⊕ full log) or the new (checkpoint ⊕ skippable log)
   state recoverable.

   Recovery = apply checkpoint, then replay the WAL suffix through
   [Database.update_batch] — the ordinary commit path, driving the same
   incremental view maintenance a live update stream does — arriving at
   exactly the last durable version.  Records at or below the
   checkpoint's version are skipped (the wal.truncate crash window). *)

open Dc_relation
open Dc_core
open Dc_calculus
module Guard = Dc_guard.Guard
module Failpoint = Guard.Failpoint
module Obs = Dc_obs.Obs
module Ivm = Dc_ivm.Ivm
module Storage = Dc_lang.Storage

exception Recovery_error of string

let recovery_error fmt = Fmt.kstr (fun s -> raise (Recovery_error s)) fmt

let magic = "DCCKPT01"
let page_tuples = 256

let m_checkpoint_ms = lazy (Obs.Histogram.make "dc_wal_checkpoint_ms")
let m_recovered = lazy (Obs.Counter.make "dc_wal_recovered_records")

(* When to take a periodic checkpoint: after [cp_records] logged
   records, after the WAL grows past [cp_bytes], or after [cp_seconds]
   of wall time since the last one — whichever trips first; [None]
   disables a criterion.  Record counts mis-size replay cost when
   commits vary wildly in width (one record can carry a million-tuple
   assignment delta), so the byte criterion bounds the actual suffix the
   next recovery must read, and the time criterion bounds staleness on
   slow-trickle streams. *)
type checkpoint_policy = {
  cp_records : int option;
  cp_bytes : int option;
  cp_seconds : float option;
}

let default_policy =
  { cp_records = Some 1024; cp_bytes = Some (4 * 1024 * 1024); cp_seconds = None }

type t = {
  dir : string;
  db : Database.t;
  wal : Wal.t;
  policy : checkpoint_policy;
  mutable since_checkpoint : int;
  mutable last_checkpoint_at : float; (* Unix.gettimeofday at the last one *)
  mutable lsn : int; (* last durable LSN *)
  mutable replayed : int; (* records replayed at open *)
  mutable group :
    (int * (string * Tuple.t list * Tuple.t list) list) list ref option;
      (* when [Some pending], commits buffer their records (newest first)
         instead of appending; [group] flushes them in one fsynced batch *)
}

let db t = t.db
let durable_lsn t = t.lsn
let replayed t = t.replayed
let wal_path dir = Filename.concat dir "wal.log"
let ckpt_path dir = Filename.concat dir "checkpoint.dat"
let tmp_path dir = Filename.concat dir "checkpoint.tmp"

(* ------------------------------------------------------------------ *)
(* Checkpoint encoding *)

let encode_arg buf = function
  | Ast.Arg_scalar (Ast.Const c) ->
    Buffer.add_char buf '\000';
    Codec.value buf c
  | Ast.Arg_range (Ast.Rel n) ->
    Buffer.add_char buf '\001';
    Codec.string_ buf n
  | _ ->
    recovery_error
      "cannot checkpoint a view over a computed argument (only constants \
       and named relations)"

let decode_arg c =
  match Codec.read_varint c with
  | 0 -> Ast.Arg_scalar (Ast.Const (Codec.read_value c))
  | 1 -> Ast.Arg_range (Ast.Rel (Codec.read_string c))
  | t -> raise (Codec.Corrupt (Fmt.str "unknown view-argument tag %d" t))

let encode_view_dump (d : Ivm.dump) =
  let buf = Buffer.create 1024 in
  Codec.string_ buf d.dp_con;
  Codec.string_ buf d.dp_base;
  Codec.varint buf (List.length d.dp_args);
  List.iter (encode_arg buf) d.dp_args;
  Buffer.add_char buf (if d.dp_stale then '\001' else '\000');
  Codec.varint buf (List.length d.dp_store);
  List.iter
    (fun (pred, ts) ->
      Codec.string_ buf pred;
      Codec.tuples buf ts)
    d.dp_store;
  Codec.varint buf (List.length d.dp_supports);
  List.iter
    (fun (pred, rows) ->
      Codec.string_ buf pred;
      Codec.varint buf (List.length rows);
      List.iter
        (fun (t, n) ->
          Codec.tuple buf t;
          Codec.varint buf n)
        rows)
    d.dp_supports;
  Buffer.contents buf

let decode_view_dump payload : Ivm.dump =
  let c = Codec.cursor payload in
  let dp_con = Codec.read_string c in
  let dp_base = Codec.read_string c in
  let dp_args = List.init (Codec.read_varint c) (fun _ -> decode_arg c) in
  let dp_stale = Codec.read_varint c <> 0 in
  let dp_store =
    List.init (Codec.read_varint c) (fun _ ->
        let pred = Codec.read_string c in
        (pred, Codec.read_tuples c))
  in
  let dp_supports =
    List.init (Codec.read_varint c) (fun _ ->
        let pred = Codec.read_string c in
        ( pred,
          List.init (Codec.read_varint c) (fun _ ->
              let t = Codec.read_tuple c in
              (t, Codec.read_varint c)) ))
  in
  { dp_con; dp_base; dp_args; dp_stale; dp_store; dp_supports }

(* Page a relation's tuples into frames of at most [page_tuples] rows.
   Pages carry their own CRC framing, so a damaged extent is detected at
   page granularity. *)
let pages_of_relation rel =
  let pages = ref [] and page = ref [] and n = ref 0 in
  let flush () =
    if !n > 0 then begin
      let buf = Buffer.create 1024 in
      Codec.tuples buf (List.rev !page);
      pages := Buffer.contents buf :: !pages;
      page := [];
      n := 0
    end
  in
  Relation.iter
    (fun t ->
      page := t :: !page;
      incr n;
      if !n >= page_tuples then flush ())
    rel;
  flush ();
  List.rev !pages

let encode_checkpoint db ~version ~lsn =
  let rels =
    List.map
      (fun name -> (name, pages_of_relation (Database.get db name)))
      (Database.relation_names db)
  in
  let views = List.map (fun v -> encode_view_dump (Ivm.dump v)) (Ivm.views db) in
  let meta = Buffer.create 1024 in
  Codec.varint meta version;
  Codec.varint meta lsn;
  Codec.string_ meta (Storage.render_catalog db);
  Codec.varint meta (List.length rels);
  List.iter
    (fun (name, pages) ->
      Codec.string_ meta name;
      Codec.varint meta (List.length pages))
    rels;
  Codec.varint meta (List.length views);
  let out = Buffer.create 65536 in
  Buffer.add_string out magic;
  Codec.add_frame out (Buffer.contents meta);
  List.iter
    (fun (_, pages) -> List.iter (Codec.add_frame out) pages)
    rels;
  List.iter (Codec.add_frame out) views;
  Buffer.contents out

(* Parse a checkpoint image and build the database it describes.  Any
   corruption is fatal: the image was published by an atomic rename, so
   a bad frame means real damage, not a torn write. *)
let apply_checkpoint ?db data =
  if
    String.length data < String.length magic
    || not (String.equal (String.sub data 0 (String.length magic)) magic)
  then recovery_error "checkpoint: bad magic";
  let pos = ref (String.length magic) in
  let next_frame () =
    let payload, next = Codec.read_frame data !pos in
    pos := next;
    payload
  in
  let meta = Codec.cursor (next_frame ()) in
  let version = Codec.read_varint meta in
  let lsn = Codec.read_varint meta in
  let catalog = Codec.read_string meta in
  let rels =
    List.init (Codec.read_varint meta) (fun _ ->
        let name = Codec.read_string meta in
        (name, Codec.read_varint meta))
  in
  let n_views = Codec.read_varint meta in
  let db = Storage.load_catalog ?db catalog in
  List.iter
    (fun (name, n_pages) ->
      let schema = Relation.schema (Database.get db name) in
      let tuples =
        List.concat
          (List.init n_pages (fun _ ->
               Codec.read_tuples (Codec.cursor (next_frame ()))))
      in
      if tuples <> [] then
        Database.set db name (Relation.of_list schema tuples))
    rels;
  for _ = 1 to n_views do
    ignore (Ivm.restore db (decode_view_dump (next_frame ())))
  done;
  Database.restore_version db version;
  (db, version, lsn)

(* ------------------------------------------------------------------ *)
(* Checkpoint writing *)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    let finally () = Unix.close fd in
    Fun.protect ~finally (fun () -> Unix.fsync fd)
  | exception Unix.Unix_error _ -> ()

let write_checkpoint t ~version =
  let t0 = if Obs.on () then Obs.now_ms () else 0. in
  let ck_lsn = max (t.lsn + 1) (Wal.next_lsn t.wal) in
  let image = encode_checkpoint t.db ~version ~lsn:ck_lsn in
  let tmp = tmp_path t.dir in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (let finally () = Unix.close fd in
   Fun.protect ~finally (fun () ->
       let written = ref 0 in
       let len = String.length image in
       while !written < len do
         written :=
           !written + Unix.write_substring fd image !written (len - !written)
       done;
       Unix.fsync fd));
  (* the crash window the matrix test drives: tmp is complete but not yet
     visible; recovery ignores it and uses the previous checkpoint *)
  Failpoint.hit "wal.checkpoint";
  Sys.rename tmp (ckpt_path t.dir);
  fsync_dir t.dir;
  (* from here the new image is the recovery root: the log is redundant
     (replay skips records at or below [version]) and can be truncated.
     [Wal.reset] fires the wal.truncate failpoint first. *)
  Wal.reset t.wal;
  Wal.set_next_lsn t.wal (ck_lsn + 1);
  t.lsn <- ck_lsn;
  t.since_checkpoint <- 0;
  t.last_checkpoint_at <- Unix.gettimeofday ();
  Database.set_durable_lsn t.db ck_lsn;
  (* records still buffered by an active group are at or below the image's
     version, so the image subsumes them; replay would skip them anyway *)
  (match t.group with Some pending -> pending := [] | None -> ());
  if Obs.on () then
    Obs.Histogram.observe (Lazy.force m_checkpoint_ms) (Obs.now_ms () -. t0)

let checkpoint t = write_checkpoint t ~version:(Database.version t.db)

(* First criterion to trip wins; everything [None] means periodic
   checkpoints are off (catalog commits and [close] still write them). *)
let checkpoint_due t =
  (match t.policy.cp_records with
  | Some n -> t.since_checkpoint >= n
  | None -> false)
  || (match t.policy.cp_bytes with
     | Some n -> t.since_checkpoint > 0 && Wal.size t.wal >= n
     | None -> false)
  ||
  match t.policy.cp_seconds with
  | Some s ->
    t.since_checkpoint > 0 && Unix.gettimeofday () -. t.last_checkpoint_at >= s
  | None -> false

(* ------------------------------------------------------------------ *)
(* Hooks *)

let hooks t =
  {
    Database.wh_append =
      (fun ~version ~catalog ~changes ->
        if catalog then
          (* no replayable delta: checkpoint the full (already mutated,
             not yet published) state at the version about to publish *)
          write_checkpoint t ~version
        else begin
          match t.group with
          | Some pending ->
            (* group mode: buffer the record; [flush_group] appends the
               whole batch and fsyncs once.  The durable LSN does not
               advance until that shared fsync. *)
            pending := (version, changes) :: !pending
          | None ->
            let lsn = Wal.append t.wal ~version ~changes in
            t.lsn <- lsn;
            t.since_checkpoint <- t.since_checkpoint + 1;
            Database.set_durable_lsn t.db lsn
        end);
    wh_published =
      (fun ~version -> if checkpoint_due t then write_checkpoint t ~version);
  }

(* ------------------------------------------------------------------ *)
(* Group commit *)

let flush_group t records =
  match records with
  | [] -> ()
  | records -> (
    match Wal.append_batch t.wal records with
    | lsns ->
      let last = List.fold_left max t.lsn lsns in
      t.lsn <- last;
      t.since_checkpoint <- t.since_checkpoint + List.length records;
      Database.set_durable_lsn t.db last;
      (* buffered records bypassed wh_published's periodic check, so the
         replay-suffix bound is enforced here instead *)
      if checkpoint_due t then
        write_checkpoint t ~version:(Database.version t.db)
    | exception (Guard.Exhausted (Guard.Fault_injected _, _) as e) ->
      (* simulated crash: propagate raw, disk state stays as the "kill"
         left it *)
      raise e
    | exception _ ->
      (* real I/O failure mid-batch: the commits are already published
         in memory and the log was restored to the pre-batch boundary —
         re-root durability in a full checkpoint instead *)
      write_checkpoint t ~version:(Database.version t.db))

let group t f =
  match t.group with
  | Some _ -> f () (* nested: the outer group owns the flush *)
  | None ->
    let pending = ref [] in
    t.group <- Some pending;
    let r =
      match f () with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    t.group <- None;
    (* flush even when [f] raised: commits that did succeed inside the
       group are published and their callers will be acknowledged *)
    flush_group t (List.rev !pending);
    (match r with
    | Ok v -> v
    | Error (e, bt) -> Printexc.raise_with_backtrace e bt)

(* ------------------------------------------------------------------ *)
(* Open / recover *)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let open_dir ?db ?(policy = default_policy) dir =
  (match policy.cp_records with
  | Some n when n < 1 -> invalid_arg "Durable.open_dir: cp_records"
  | _ -> ());
  (match policy.cp_bytes with
  | Some n when n < 1 -> invalid_arg "Durable.open_dir: cp_bytes"
  | _ -> ());
  (match policy.cp_seconds with
  | Some s when s <= 0. -> invalid_arg "Durable.open_dir: cp_seconds"
  | _ -> ());
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    recovery_error "%s exists and is not a directory" dir;
  (* a leftover tmp is an unpublished checkpoint from a crash: discard *)
  if Sys.file_exists (tmp_path dir) then Sys.remove (tmp_path dir);
  let db, lsn =
    if Sys.file_exists (ckpt_path dir) then begin
      let db, _version, lsn =
        try apply_checkpoint ?db (read_file (ckpt_path dir))
        with Codec.Corrupt msg ->
          recovery_error "%s: corrupt checkpoint (%s)" (ckpt_path dir) msg
      in
      (db, lsn)
    end
    else ((match db with Some db -> db | None -> Database.create ()), 0)
  in
  let wal, records = Wal.load (wal_path dir) in
  let t =
    { dir; db; wal; policy; since_checkpoint = 0;
      last_checkpoint_at = Unix.gettimeofday (); lsn; replayed = 0;
      group = None }
  in
  (* replay the suffix: records at or below the checkpoint version are
     from the wal.truncate crash window and already in the image *)
  List.iter
    (fun (r : Wal.record) ->
      if r.r_version > Database.version db then begin
        Database.restore_version db (r.r_version - 1);
        Database.update_batch db r.r_changes;
        t.replayed <- t.replayed + 1;
        t.since_checkpoint <- t.since_checkpoint + 1;
        t.lsn <- max t.lsn r.r_lsn
      end)
    records;
  if Obs.on () && t.replayed > 0 then
    Obs.Counter.add (Lazy.force m_recovered) t.replayed;
  Wal.set_next_lsn wal (t.lsn + 1);
  Database.set_durable_lsn db t.lsn;
  Database.set_wal_hooks db (Some (hooks t));
  (* attaching a directory to a database that already has state (e.g.
     [run --data] over a script-built database): root it in a checkpoint
     immediately, otherwise that state would never reach disk *)
  if
    Database.version db > 0
    && (not (Sys.file_exists (ckpt_path dir)))
    && records = []
  then checkpoint t;
  t

let close t =
  (* a final checkpoint bounds the next open's replay; skip it when the
     directory is already rooted in one and nothing was logged since *)
  if t.since_checkpoint > 0 || not (Sys.file_exists (ckpt_path t.dir)) then
    checkpoint t;
  Database.set_wal_hooks t.db None;
  Wal.close t.wal
