(* The in-process decomposition of a traced run.  A seeded sample of the
   workload's statements is replayed against an in-process durable
   server loaded with the same init program.  Each statement runs both
   through the real entry point ([Server.query_string] for reads,
   [Server.execute] for writes) and as the sequence of public layer
   calls the server makes, timed one by one; nothing inside lib/ is
   instrumented.  Layer names are lib/ module names.

   Read path:  Parser.parse -> Elaborate.lower_query -> Database.snapshot
               -> Par.run hop -> Snapshot.check_query -> Eval.eval_range
               (then Wire encode/decode around it)
   Write path: Parser.parse -> Server.submit: queue wait -> (writer)
               Elaborate.execute_decl (commit, IVM) -> group flush + ack *)

open Dc_relation
open Bench_core
module Server = Dc_server.Server
module Database = Dc_core.Database
module Snapshot = Dc_core.Snapshot
module Elaborate = Dc_lang.Elaborate
module Wire = Dc_net.Wire
module Codec = Dc_wal.Codec
module Ivm = Dc_ivm.Ivm
module Ir = Dc_exec.Ir

let now = Clock.now

let us f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1e6)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let mean = function [] -> 0. | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Per-layer medians over repetitions of one statement. *)
let median_row (runs : (string * float) list list) =
  List.map (fun (k, _) -> (k, Stats.median (List.map (List.assoc k) runs))) (List.hd runs)

type result = {
  metrics : (string * float) list;  (** per-layer values for this workload *)
  per_kind : (string * (string * float) list) list;  (** reads by cost class *)
  snapshot_us : float;  (** in-process cost of a wire Snapshot request *)
}

let decompose (w : Workload.t) ~dir ~reps ~sample =
  let srv = Server.open_durable ~checkpoint_every:1_000_000 dir in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let s = Server.open_session srv in
  ignore (Server.execute s w.init);
  let db = Server.db srv in
  let env = Elaborate.create db in
  let inst = w.start () in
  let stream = List.init sample (fun _ -> inst.next ()) in
  let reads = List.filter (fun (st : Drive.stmt) -> not st.write) stream in
  (* writes toggle, two by two: each pair leaves the state as it found it *)
  let rec pairs = function a :: b :: rest -> (a, b) :: pairs rest | _ -> [] in
  let write_pairs = pairs (List.filter (fun (st : Drive.stmt) -> st.write) stream) in
  let parse text =
    match Dc_lang.Parser.parse text with [ d ] -> d | _ -> failwith ("not one statement: " ^ text)
  in
  let framed req = String.length (Codec.frame_string (Wire.encode_request req)) in
  let read_layers (st : Drive.stmt) =
    let d, parse_us = us (fun () -> parse st.text) in
    let r = match d with Dc_lang.Surface.D_query r -> r | _ -> failwith "not a query" in
    let range, lower_us = us (fun () -> Elaborate.lower_query env r) in
    let snap, snapshot_us = us (fun () -> Database.snapshot db) in
    let (), par_us = us (fun () -> Dc_par.Par.run (fun () -> ())) in
    let (), typecheck_us = us (fun () -> Snapshot.check_query snap range) in
    let rel, eval_us = us (fun () -> Dc_calculus.Eval.eval_range (Snapshot.eval_env snap) range) in
    let payload, encode_us =
      us (fun () ->
          Codec.frame_string
            (Wire.encode_response
               (Wire.Rows
                  {
                    version = Snapshot.version snap;
                    columns = Schema.attr_names (Relation.schema rel);
                    tuples = Relation.to_list rel;
                  })))
    in
    let body = String.sub payload 8 (String.length payload - 8) in
    let _, decode_us = us (fun () -> ignore (Codec.crc32 body); Wire.decode_response body) in
    let _, real_us = us (fun () -> Server.query_string s st.text) in
    [
      ("lang.parse_us", parse_us);
      ("lang.lower_us", lower_us);
      ("core.snapshot_us", snapshot_us);
      ("par.run_us", par_us);
      ("calculus.typecheck_us", typecheck_us);
      ("core.eval_us", eval_us);
      ("net.encode_us", encode_us);
      ("net.decode_us", decode_us);
      ("bytes", float_of_int (String.length payload + framed (Wire.Query st.text)));
      ("real_us", real_us);
    ]
  in
  let read_counts (st : Drive.stmt) =
    let range =
      match parse st.text with
      | Dc_lang.Surface.D_query r -> Elaborate.lower_query env r
      | _ -> failwith "not a query"
    in
    Database.reset_last_stats db;
    let tr = Ir.Trace.create () in
    ignore (Database.query ~trace:tr db range);
    let rounds, derivations =
      match Database.last_stats db with
      | Some st -> (st.Dc_core.Fixpoint.rounds, st.tuples_derived)
      | None -> (0, 0)
    in
    let rows, probes =
      List.fold_left
        (fun (r, p) (_, _, _, (c : Ir.counters)) -> (r + c.rows, p + c.probes))
        (0, 0) (Ir.Trace.counters tr)
    in
    [
      ("core.rounds", float_of_int rounds);
      ("core.derivations", float_of_int derivations);
      ("exec.rows", float_of_int rows);
      ("exec.probes", float_of_int probes);
    ]
  in
  let write_layers (st : Drive.stmt) =
    let d, parse_us = us (fun () -> parse st.text) in
    Ivm.reset_reports ();
    let t_start = ref 0. and t_end = ref 0. in
    let t_call = now () in
    Server.submit srv (fun () ->
        t_start := now ();
        Elaborate.execute_decl env d;
        t_end := now ());
    let t_ret = now () in
    ignore (Elaborate.drain_output env);
    let reports = Ivm.reports () in
    let phase prefix =
      List.fold_left
        (fun a (rp : Ivm.report) ->
          List.fold_left
            (fun a (ph : Ivm.phase) ->
              if String.starts_with ~prefix ph.ph_label then a + ph.ph_tuples else a)
            a rp.rp_phases)
        0 reports
    in
    let sum f = List.fold_left (fun a rp -> a +. f rp) 0. reports in
    [
      ("lang.parse_us", parse_us);
      ("server.queue_wait_us", (!t_start -. t_call) *. 1e6);
      ("core.commit_us", (!t_end -. !t_start) *. 1e6);
      ("wal.flush_wait_us", (t_ret -. !t_end) *. 1e6);
      ("ivm.maintain_us", sum (fun rp -> rp.rp_ms) *. 1e3);
      ("ivm.delta_tuples", sum (fun rp -> float_of_int (rp.rp_plus + rp.rp_minus)));
      ("overdeleted", float_of_int (phase "overdelete"));
      ("rederived", float_of_int (phase "rederive"));
      ( "bytes",
        float_of_int
          (framed (Wire.Stmt st.text)
          + String.length (Codec.frame_string (Wire.encode_response (Wire.Output "")))) );
    ]
  in
  let wal_bytes = ref 0 and commits = ref 0 in
  let write_real (st : Drive.stmt) =
    let before = file_size (Filename.concat dir "wal.log") in
    let _, real_us = us (fun () -> Server.execute s st.text) in
    wal_bytes := !wal_bytes + file_size (Filename.concat dir "wal.log") - before;
    incr commits;
    real_us
  in
  (* reads: real entry point and layer calls alternate, [reps] times *)
  let read_rows =
    List.map
      (fun st -> (st, median_row (List.init reps (fun _ -> read_layers st)), read_counts st))
      reads
  in
  (* writes: a pair through Server.execute, then the same pair by layers *)
  let write_rows =
    List.concat_map
      (fun (a, b) ->
        let runs =
          List.init reps (fun _ ->
              let ra = write_real a in
              let rb = write_real b in
              let la = write_layers a in
              let lb = write_layers b in
              (("real_us", ra) :: la, ("real_us", rb) :: lb))
        in
        [ median_row (List.map fst runs); median_row (List.map snd runs) ])
      write_pairs
  in
  let col k rows = List.map (List.assoc k) rows in
  let rl = List.map (fun (_, l, _) -> l) read_rows in
  let rc = List.map (fun (_, _, c) -> c) read_rows in
  (* the layers that tile each entry point's time *)
  let read_sum =
    [ "lang.parse_us"; "lang.lower_us"; "core.snapshot_us"; "par.run_us";
      "calculus.typecheck_us"; "core.eval_us" ]
  in
  let write_sum =
    [ "lang.parse_us"; "server.queue_wait_us"; "core.commit_us"; "wal.flush_wait_us" ]
  in
  let total keys rows =
    List.fold_left
      (fun a row -> List.fold_left (fun a k -> a +. List.assoc k row) a keys)
      0. rows
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let real = total [ "real_us" ] rl +. total [ "real_us" ] write_rows in
  let layers = total read_sum rl +. total write_sum write_rows in
  let eval_total = total [ "core.eval_us" ] rl and rows = total [ "exec.rows" ] rc in
  let overdeleted = total [ "overdeleted" ] write_rows in
  let metrics =
    [
      ("lang.parse_us", mean (col "lang.parse_us" (rl @ write_rows)));
      ("lang.lower_us", mean (col "lang.lower_us" rl));
      ("calculus.typecheck_us", mean (col "calculus.typecheck_us" rl));
      ("core.snapshot_us", mean (col "core.snapshot_us" rl));
      ("par.run_us", mean (col "par.run_us" rl));
      ("core.eval_us", mean (col "core.eval_us" rl));
      ("core.rounds", mean (col "core.rounds" rc));
      ("core.derivations", mean (col "core.derivations" rc));
      ("exec.rows", mean (col "exec.rows" rc));
      ("exec.probes", mean (col "exec.probes" rc));
      ("exec.ns_per_row", ratio (eval_total *. 1e3) rows);
      ("core.commit_us", mean (col "core.commit_us" write_rows));
      ("server.queue_wait_us", mean (col "server.queue_wait_us" write_rows));
      ("wal.flush_wait_us", mean (col "wal.flush_wait_us" write_rows));
      ("ivm.maintain_us", mean (col "ivm.maintain_us" write_rows));
      ("ivm.delta_tuples", mean (col "ivm.delta_tuples" write_rows));
      ("ivm.rederive_ratio", ratio (total [ "rederived" ] write_rows) overdeleted);
      ("wal.bytes_per_commit", ratio (float_of_int !wal_bytes) (float_of_int !commits));
      ("net.encode_us", mean (col "net.encode_us" rl));
      ("net.decode_us", mean (col "net.decode_us" rl));
      ("net.bytes_per_stmt", mean (col "bytes" (rl @ write_rows)));
      ("unaccounted_pct", if real > 0. then 100. *. (1. -. (layers /. real)) else 0.);
    ]
  in
  let per_kind =
    List.sort_uniq compare (List.map (fun ((st : Drive.stmt), _, _) -> st.kind) read_rows)
    |> List.map (fun kind ->
           let mine = List.filter (fun ((st : Drive.stmt), _, _) -> st.kind = kind) read_rows in
           let count k = mean (List.map (fun (_, _, c) -> List.assoc k c) mine) in
           let eval = mean (List.map (fun (_, l, _) -> List.assoc "core.eval_us" l) mine) in
           ( kind,
             [
               ("eval_ms", eval /. 1e3);
               ("rounds", count "core.rounds");
               ("derivations", count "core.derivations");
               ("rows", count "exec.rows");
               ("probes", count "exec.probes");
               ("ns_per_row", ratio (eval *. 1e3) (count "exec.rows"));
             ] ))
  in
  let snapshot_once () =
    let req = Codec.frame_string (Wire.encode_request Wire.Snapshot) in
    ignore (Wire.decode_request (String.sub req 8 (String.length req - 8)));
    let snap = Database.snapshot db in
    let resp =
      Codec.frame_string
        (Wire.encode_response
           (Wire.Snap
              {
                version = Snapshot.version snap;
                durable_lsn = Snapshot.durable_lsn snap;
                relations = Snapshot.relation_count snap;
                views = List.length (Snapshot.view_names snap);
                summary = Fmt.str "%a" Snapshot.pp_summary snap;
              }))
    in
    ignore (Wire.decode_response (String.sub resp 8 (String.length resp - 8)))
  in
  let snapshot_us = Stats.median (List.init 201 (fun _ -> snd (us snapshot_once))) in
  Server.close_session s;
  { metrics; per_kind; snapshot_us }
