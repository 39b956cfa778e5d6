(* servebench: drives a separate `dbpl serve` process over the wire
   protocol and reports the gated end-to-end metrics (or, with
   --trace 1, the per-layer breakdown) of one workload.

     servebench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                [--out FILE]
     servebench compare OLD.jsonl NEW.jsonl [--bounds BENCHMARK.json]

   Without --workload all four workloads run in turn.  The last line of
   standard output is the run's JSON result; --out also appends a full
   record (host, metrics, per-class detail) to FILE, which is what
   compare reads.  See servebench/README.md. *)

open Bench_core
module Client = Dc_net.Net.Client

let e2e_units =
  [
    ("setup_s", "s");
    ("stmt_per_s", "1/s");
    ("p50_ms", "ms");
    ("p90_ms", "ms");
    ("server_rss_peak_mb", "MB");
  ]

let layer_units =
  [
    ("lang.parse_us", "us");
    ("lang.lower_us", "us");
    ("calculus.typecheck_us", "us");
    ("core.snapshot_us", "us");
    ("par.run_us", "us");
    ("core.eval_us", "us");
    ("core.rounds", "count");
    ("core.derivations", "count");
    ("exec.rows", "count");
    ("exec.probes", "count");
    ("exec.ns_per_row", "ns");
    ("core.commit_us", "us");
    ("server.queue_wait_us", "us");
    ("wal.flush_wait_us", "us");
    ("ivm.maintain_us", "us");
    ("ivm.delta_tuples", "count");
    ("ivm.rederive_ratio", "ratio");
    ("wal.group_size", "count");
    ("wal.fsync_ms", "ms");
    ("wal.checkpoint_ms", "ms");
    ("wal.bytes_per_commit", "bytes");
    ("wal.recover_open_ms", "ms");
    ("wal.replayed", "count");
    ("net.encode_us", "us");
    ("net.decode_us", "us");
    ("net.bytes_per_stmt", "bytes");
    ("net.transport_us", "us");
    ("unaccounted_pct", "%");
    ("trace_overhead_pct", "%");
  ]

(* ------------------------------------------------------------------ *)
(* Files *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir path = try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let copy_dir src dst =
  mkdir dst;
  Array.iter
    (fun f ->
      let s = Filename.concat src f in
      if (Unix.stat s).Unix.st_kind = Unix.S_REG then
        write_file (Filename.concat dst f) (In_channel.with_open_bin s In_channel.input_all))
    (Sys.readdir src)

(* ------------------------------------------------------------------ *)
(* One run *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  info : (string * float) list;  (** printed and recorded, never gated *)
  checks : (string * bool) list;
  errors : string list;
}

(* A latency scaled to the nominal host (see Calib). *)
let scaled_ms (s : Drive.sample) = s.s_ms /. s.s_factor

let pct p samples = match samples with [] -> 0. | l -> Stats.percentile p l

(* Statements per second, as the median over the window's slices, so a
   slow spell shorter than half the window does not move it; [scaled]
   scales each slice to the nominal host. *)
let throughput ~scaled (r : Drive.result) =
  match r.slices with
  | [] -> 0.
  | l ->
    Stats.median
      (List.map
         (fun (s : Drive.slice) ->
           float_of_int s.stmts /. s.busy_s *. if scaled then s.factor else 1.)
         l)

(* Information only: the raw (unscaled) values, the host's slowness, and
   percentiles per statement class and per kind. *)
let info_of (r : Drive.result) =
  let pcts prefix samples =
    let xs = List.map scaled_ms samples in
    if xs = [] then []
    else
      [
        (prefix ^ "_p50_ms", Stats.percentile 50. xs);
        (prefix ^ "_p90_ms", Stats.percentile 90. xs);
        (prefix ^ "_p99_ms", Stats.percentile 99. xs);
        (prefix ^ "_samples", float_of_int (List.length xs));
      ]
  in
  let of_kind k = List.filter (fun (s : Drive.sample) -> s.s_kind = k) r.samples in
  let kinds = List.sort_uniq compare (List.map (fun (s : Drive.sample) -> s.s_kind) r.samples) in
  let raw = List.map (fun (s : Drive.sample) -> s.s_ms) r.samples in
  [
    ("raw_stmt_per_s", throughput ~scaled:false r);
    ("raw_p50_ms", pct 50. raw);
    ("raw_p90_ms", pct 90. raw);
    ("host_factor", pct 50. (List.map (fun (s : Drive.slice) -> s.factor) r.slices));
  ]
  @ pcts "read" (List.filter (fun (s : Drive.sample) -> not s.s_write) r.samples)
  @ pcts "write" (List.filter (fun (s : Drive.sample) -> s.s_write) r.samples)
  @ List.map (fun k -> ("kind." ^ k ^ "_p50_ms", pct 50. (List.map scaled_ms (of_kind k)))) kinds

(* Spawn a server and time it to its listening line, raw and scaled to
   the nominal host by the speed measured just before and after. *)
let spawn_timed ~metrics ~log args =
  let before = Calib.factor () in
  let p, raw = Proc.spawn ~metrics ~log args in
  let after = Calib.factor () in
  (p, raw, raw /. ((before +. after) /. 2.))

let spawn_fresh ~metrics ~dir ~init tag =
  let data = Filename.concat dir ("data_" ^ tag) in
  rm_rf data;
  let p, raw, scaled =
    spawn_timed ~metrics ~log:(Filename.concat dir "server.log") [ "--init"; init; "--data"; data ]
  in
  (p, raw, scaled, data)

let run_suffix conn stmts =
  List.fold_left
    (fun (n, errors) s ->
      match Client.exec conn s with
      | _ -> (n, errors)
      | exception e -> (n + 1, (Drive.describe e ^ ": " ^ s) :: errors))
    (0, []) stmts

(* The client on a fresh connection, warmed up and then measured for
   [seconds]. *)
let measure (w : Workload.t) (inst : Workload.instance) (p : Proc.t) ~seconds =
  let conn = Drive.connect p.port in
  let window seconds =
    Drive.window ~conn ~next:inst.next ~unit_len:w.unit_len ~check:inst.check ~seconds
  in
  let warm = window w.warmup_s in
  let r = window seconds in
  ( conn,
    {
      r with
      attempted = r.attempted + warm.attempted;
      failed = r.failed + warm.failed;
      errors = warm.errors @ r.errors;
    } )

let crash (inst : Workload.instance) p conn =
  let suffix = run_suffix conn (inst.crash_suffix ()) in
  Proc.kill p;
  Client.close conn;
  suffix

(* Set-up and recovery each take milliseconds: repeat them and report
   the median. *)
let repeats = 9

let e2e (w : Workload.t) ~seconds ~dir ~init =
  let setups = ref [] in
  let rec setup i =
    let p, raw, scaled, data = spawn_fresh ~metrics:false ~dir ~init (string_of_int i) in
    setups := (raw, scaled) :: !setups;
    if i < repeats then (Proc.kill p; setup (i + 1)) else (p, data)
  in
  let p, data = setup 1 in
  let inst = w.start () in
  let conn, r = measure w inst p ~seconds in
  let rss = Proc.peak_rss_mb p in
  let before = inst.verify conn in
  let suffix_failed, suffix_errors = crash inst p conn in
  let rec restart i acc =
    let log = Filename.concat dir "server.log" in
    let p, _, s = spawn_timed ~metrics:false ~log [ "--data"; data ] in
    if i < repeats then (Proc.kill p; restart (i + 1) (s :: acc))
    else begin
      let c = Drive.connect p.port in
      let after = inst.verify c in
      Client.close c;
      Proc.kill p;
      (s :: acc, after)
    end
  in
  let recovers, after = restart 1 [] in
  let lat = List.map scaled_ms r.samples in
  let checks =
    List.map (fun (n, ok) -> ("before crash: " ^ n, ok)) before
    @ List.map (fun (n, ok) -> ("after recovery: " ^ n, ok)) after
  in
  {
    attempted = r.attempted + List.length checks;
    failed = r.failed + suffix_failed + List.length (List.filter (fun (_, ok) -> not ok) checks);
    metrics =
      [
        ("setup_s", Stats.median (List.map snd !setups));
        ("stmt_per_s", throughput ~scaled:true r);
        ("p50_ms", pct 50. lat);
        ("p90_ms", pct 90. lat);
        ("server_rss_peak_mb", rss);
      ];
    (* recovery of these small databases takes milliseconds, mostly
       process start-up: reported, checked, not gated *)
    info =
      ("raw_setup_s", Stats.median (List.map fst !setups))
      :: ("recover_s", Stats.median recovers)
      :: info_of r;
    checks;
    errors = r.errors @ suffix_errors;
  }

(* Mean of a histogram in the server's metrics registry, over all label
   sets; 0 when it saw nothing. *)
let histogram_mean json name =
  let count, sum =
    List.fold_left
      (fun (c, s) m ->
        if Json.to_str (Json.member "name" m) = Some name then
          ( c +. Option.value ~default:0. (Json.to_num (Json.member "count" m)),
            s +. Option.value ~default:0. (Json.to_num (Json.member "sum" m)) )
        else (c, s))
      (0., 0.)
      (Json.to_list (Json.member "metrics" json))
  in
  if count > 0. then sum /. count else 0.

let traced (w : Workload.t) ~seconds ~dir ~init =
  let half = seconds /. 2. in
  (* part 1a: untraced server; also the wire round trip of a Snapshot *)
  let p, _, _, _ = spawn_fresh ~metrics:false ~dir ~init "untraced" in
  let conn, ra = measure w (w.start ()) p ~seconds:half in
  let rtt_us =
    Stats.median
      (List.init 201 (fun _ ->
           let t0 = Clock.now () in
           ignore (Client.snapshot conn);
           (Clock.now () -. t0) *. 1e6))
  in
  Proc.kill p;
  Client.close conn;
  (* part 1b: the same workload with the server's metrics registry on *)
  let p, _, _, data = spawn_fresh ~metrics:true ~dir ~init "traced" in
  let inst = w.start () in
  let conn, rb = measure w inst p ~seconds:half in
  let registry = Json.of_string (Client.metrics conn `Json) in
  let checks = inst.verify conn in
  let suffix_failed, suffix_errors = crash inst p conn in
  let recover_ms, replayed =
    let runs =
      List.init 3 (fun i ->
          let copy = Filename.concat dir (Printf.sprintf "recover_%d" i) in
          copy_dir data copy;
          let t0 = Clock.now () in
          let d = Dc_wal.Durable.open_dir copy in
          let ms = (Clock.now () -. t0) *. 1e3 in
          let n = Dc_wal.Durable.replayed d in
          Dc_wal.Durable.close d;
          (ms, n))
    in
    (Stats.median (List.map fst runs), float_of_int (snd (List.hd runs)))
  in
  (* part 2: the in-process decomposition *)
  let sample, reps = if w.unit_len > 1 then (w.unit_len, 2) else (200, 3) in
  let l = Layers.decompose w ~dir:(Filename.concat dir "inproc") ~reps ~sample in
  let tput = throughput ~scaled:true in
  let metrics =
    l.metrics
    @ [
        ("wal.group_size", histogram_mean registry "dc_wal_group_size");
        ("wal.fsync_ms", histogram_mean registry "dc_wal_fsync_ms");
        ("wal.checkpoint_ms", histogram_mean registry "dc_wal_checkpoint_ms");
        ("wal.recover_open_ms", recover_ms);
        ("wal.replayed", replayed);
        ("net.transport_us", rtt_us -. l.snapshot_us);
        ("trace_overhead_pct", 100. *. (tput ra -. tput rb) /. tput ra);
      ]
  in
  {
    attempted = ra.attempted + rb.attempted + List.length checks;
    failed =
      ra.failed + rb.failed + suffix_failed
      + List.length (List.filter (fun (_, ok) -> not ok) checks);
    metrics = List.map (fun (k, _) -> (k, List.assoc k metrics)) layer_units;
    info =
      [ ("untraced_stmt_per_s", tput ra); ("traced_stmt_per_s", tput rb) ]
      @ List.concat_map
          (fun (kind, kv) -> List.map (fun (k, v) -> (Printf.sprintf "kind.%s.%s" kind k, v)) kv)
          l.per_kind;
    checks;
    errors = ra.errors @ rb.errors @ suffix_errors;
  }

(* ------------------------------------------------------------------ *)
(* Output *)

let result_json ~units o =
  Json.Obj
    [
      ("correct", Json.Bool (o.failed = 0));
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (k, v) ->
               (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (List.assoc k units)) ]))
             o.metrics) );
    ]

let report (w : Workload.t) ~seed ~seconds ~trace ~out ~host o =
  let units = if trace then layer_units else e2e_units in
  Printf.printf "# %s seed=%d seconds=%g trace=%d\n" w.name seed seconds (Bool.to_int trace);
  List.iter (fun (k, v) -> Printf.printf "# host %s: %s\n" k v) host;
  List.iter
    (fun (k, v) -> Printf.printf "metric %-24s %14s %s\n" k (Json.number v) (List.assoc k units))
    o.metrics;
  List.iter (fun (k, v) -> Printf.printf "info   %-32s %s\n" k (Json.number v)) o.info;
  List.iter
    (fun (k, ok) -> Printf.printf "check  %-48s %s\n" k (if ok then "ok" else "FAILED"))
    o.checks;
  List.iter (fun e -> Printf.printf "error  %s\n" e) o.errors;
  Printf.printf "error_rate %g (%d failed of %d attempted)\n"
    (float_of_int o.failed /. float_of_int (max 1 o.attempted))
    o.failed o.attempted;
  let result = result_json ~units o in
  Option.iter
    (fun path ->
      let fields = match result with Json.Obj l -> l | _ -> [] in
      let record =
        Json.Obj
          ([
             ("workload", Json.Str w.name);
             ("seed", Json.Num (float_of_int seed));
             ("trace", Json.Num (float_of_int (Bool.to_int trace)));
             ("host", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) host));
           ]
          @ fields
          @ [ ("info", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) o.info)) ])
      in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
          output_string oc (Json.to_string record ^ "\n")))
    out;
  print_endline (Json.to_string result)

let run_workload (w : Workload.t) ~seed ~seconds ~trace ~out =
  let root = ".bench_run" in
  mkdir root;
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  rm_rf dir;
  mkdir dir;
  Fun.protect
    ~finally:(fun () ->
      List.iter Proc.kill !Proc.live;
      rm_rf dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ())
    (fun () ->
      let host = Host.fields ~data_dir:dir in
      let init = Filename.concat dir "init.dbpl" in
      write_file init w.init;
      let o = (if trace then traced else e2e) w ~seconds ~dir ~init in
      report w ~seed ~seconds ~trace ~out ~host o)

(* ------------------------------------------------------------------ *)
(* compare *)

let read_records path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.length (String.trim l) > 0)
  |> List.map Json.of_string
  |> List.filter (fun r -> Json.to_num (Json.member "trace" r) <> Some 1.)

let compare_cmd ~bounds old_path new_path =
  let metrics =
    Verdict.metrics_of_benchmark
      (Json.of_string (In_channel.with_open_bin bounds In_channel.input_all))
  in
  let rows, errors, regressed =
    Verdict.compare_runs metrics ~old_:(read_records old_path) ~new_:(read_records new_path)
  in
  Printf.printf "%-16s %-20s %12s %12s %8s  %s\n" "workload" "metric" "old median" "new median"
    "change" "verdict";
  List.iter
    (fun (r : Verdict.row) ->
      Printf.printf "%-16s %-20s %12.4g %12.4g %+7.1f%%  %s\n" r.workload r.metric r.old_median
        r.new_median
        (100. *. (r.new_median -. r.old_median) /. r.old_median)
        (Verdict.verdict_name r.verdict))
    rows;
  List.iter
    (fun (e : Verdict.errors) ->
      Printf.printf "%-16s %-20s %12.4g %12.4g %8s  %s\n" e.e_workload "error_rate" e.old_rate
        e.new_rate ""
        (if e.new_rate > e.old_rate then "higher" else "not higher"))
    errors;
  if regressed then begin
    print_endline "regression: a metric is slower beyond its bound or the error rate rose";
    exit 1
  end

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: servebench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
    \       servebench compare OLD.jsonl NEW.jsonl [--bounds BENCHMARK.json]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | "compare" :: old_path :: new_path :: rest ->
    let bounds = match rest with [ "--bounds"; b ] -> b | [] -> "BENCHMARK.json" | _ -> usage () in
    compare_cmd ~bounds old_path new_path
  | _ ->
    let workload = ref None and seed = ref 1 and seconds = ref 10. and trace = ref false
    and out = ref None in
    let rec parse = function
      | "--workload" :: v :: rest -> workload := Some v; parse rest
      | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
      | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
      | "--trace" :: v :: rest -> trace := v = "1"; parse rest
      | "--out" :: v :: rest -> out := Some v; parse rest
      | [] -> ()
      | _ -> usage ()
    in
    (try parse args with Failure _ -> usage ());
    let names = match !workload with Some n -> [ n ] | None -> Workload.names in
    List.iter
      (fun name ->
        match Workload.find name !seed with
        | None ->
          prerr_endline
            ("unknown workload " ^ name ^ "; one of " ^ String.concat ", " Workload.names);
          exit 2
        | Some w -> run_workload w ~seed:!seed ~seconds:!seconds ~trace:!trace ~out:!out)
      names
