(* The server under test as a separate process: [dbpl serve] spawned from
   the build tree next to this executable, timed from spawn to its
   "listening" line, and killed with SIGKILL (a crash, not a shutdown). *)

type t = {
  pid : int;
  mutable port : int;
  out : Unix.file_descr;
  mutable alive : bool;
}

let live : t list ref = ref []

let server_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "dbpl.exe")

let rec waitpid pid =
  try ignore (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let kill t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    waitpid t.pid;
    Unix.close t.out;
    live := List.filter (fun u -> u != t) !live
  end

let () = at_exit (fun () -> List.iter kill !live)

let listening_port text =
  let tag = "listening on tcp:" in
  let n = String.length text and m = String.length tag in
  let rec find i =
    if i + m > n then None
    else if String.sub text i m = tag then
      match String.index_from_opt text (i + m) '\n' with
      | None -> None
      | Some eol ->
        let addr = String.sub text (i + m) (eol - i - m) in
        Option.bind (String.rindex_opt addr ':') (fun c ->
            int_of_string_opt (String.sub addr (c + 1) (String.length addr - c - 1)))
    else find (i + 1)
  in
  find 0

(* Start [dbpl serve --listen 127.0.0.1:0 ARGS] with [metrics] deciding
   DC_METRICS, and return it with the seconds it took to print its
   listening line (init, MATERIALIZE and checkpoints included). *)
let spawn ~metrics ~log args =
  let exe = server_exe () in
  let env =
    Array.of_list
      (("DC_METRICS=" ^ if metrics then "1" else "0")
      :: List.filter
           (fun kv -> not (String.starts_with ~prefix:"DC_METRICS=" kv))
           (Array.to_list (Unix.environment ())))
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let t0 = Clock.now () in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: "serve" :: "--listen" :: "127.0.0.1:0" :: args))
      env null w err
  in
  List.iter Unix.close [ w; err; null ];
  let t = { pid; port = 0; out = r; alive = true } in
  live := t :: !live;
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec wait () =
    match listening_port (Buffer.contents buf) with
    | Some port -> port
    | None -> (
      let left = t0 +. 150. -. Clock.now () in
      if left <= 0. then (kill t; failwith "server did not start listening");
      match Unix.select [ r ] [] [] left with
      | [], _, _ -> wait ()
      | _ -> (
        match Unix.read r chunk 0 (Bytes.length chunk) with
        | 0 -> kill t; failwith ("server exited before listening; see " ^ log)
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          wait ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ())
  in
  t.port <- wait ();
  (t, Clock.now () -. t0)

(* Peak resident set (VmHWM) of the live server, in MB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
