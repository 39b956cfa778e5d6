(* dbpl — run DBPL programs with data constructors.

   Usage:
     dbpl run program.dbpl            execute, print QUERY/EXPLAIN output
     dbpl check program.dbpl          parse + typecheck + positivity only
     dbpl run --strategy naive ...    naive instead of semi-naive fixpoints
     dbpl run --unchecked ...         disable the positivity check (§3.3)
     dbpl run --data DIR ...          recover DIR first, persist to it

   See examples/*.dbpl for the surface syntax. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let strategy_conv =
  Arg.enum [ ("seminaive", Dc_core.Fixpoint.Seminaive); ("naive", Dc_core.Fixpoint.Naive) ]

(* --limit-* flags shared by run and repl: initial declarative limits,
   adjustable from inside the program with SET LIMIT. *)
let limit_flags =
  let rows =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit-rows" ] ~docv:"N"
          ~doc:"Abort any evaluation after producing $(docv) operator rows")
  in
  let rounds =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit-rounds" ] ~docv:"N"
          ~doc:"Abort any fixpoint after $(docv) rounds")
  in
  let millis =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit-millis" ] ~docv:"MS"
          ~doc:"Abort any evaluation running longer than $(docv) milliseconds")
  in
  Term.(
    const (fun rows rounds millis ->
        Dc_guard.Guard.limits ?millis ?rows ?rounds ())
    $ rows $ rounds $ millis)

(* --domains flag shared by run and repl: initial fixpoint parallelism,
   adjustable from inside the program with SET PARALLEL. *)
let domains_flag =
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"P"
          ~doc:
            "Evaluate constructor fixpoints on $(docv) domains (default: \
             DC_DOMAINS, else one less than the recommended domain count; \
             1 = sequential)")
  in
  Term.(
    const (fun d -> Option.iter Dc_par.Par.set_domains d)
    $ domains)

(* Report a typed error on [ppf] through the server's error taxonomy
   ({!Dc_net.Net.classify_exn}) and return its exit status: 2 for a
   tripped guard, 1 for any other class.  An exception the taxonomy does
   not know propagates. *)
let report ppf e =
  match Dc_net.Net.classify_exn e with
  | Dc_net.Wire.Internal, _ -> raise e
  | Dc_net.Wire.Limit, m ->
    Fmt.pf ppf "%s@." m;
    2
  | code, m ->
    Fmt.pf ppf "%a error: %s@." Dc_net.Wire.pp_error_code code m;
    1

let handle_errors f = try f () with e -> exit (report Fmt.stderr e)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"DBPL program")
  in
  let strategy =
    Arg.(
      value
      & opt strategy_conv Dc_core.Fixpoint.Seminaive
      & info [ "strategy" ] ~doc:"Fixpoint strategy: seminaive or naive")
  in
  let unchecked =
    Arg.(
      value & flag
      & info [ "unchecked" ]
          ~doc:"Disable the positivity check (allows non-monotone systems)")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Enable metrics collection and dump the registry to $(docv) \
             after the run — JSON when $(docv) ends in .json, Prometheus \
             text otherwise")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data" ] ~docv:"DIR"
          ~doc:
            "Durable database directory: recover $(docv) (checkpoint + \
             write-ahead log) before the program runs, log every commit, \
             and checkpoint on exit")
  in
  let run file strategy unchecked limits () metrics_out data =
    handle_errors @@ fun () ->
    if Option.is_some metrics_out then Dc_obs.Obs.set_enabled true;
    let db =
      Dc_core.Database.create ~strategy ~check_positivity:(not unchecked)
        ~limits ()
    in
    let durable = Option.map (Dc_wal.Durable.open_dir ~db) data in
    let _, out = Dc_lang.Elaborate.run_string ~db (read_file file) in
    print_string out;
    Option.iter Dc_wal.Durable.close durable;
    match metrics_out with
    | Some path ->
      let body =
        if Filename.check_suffix path ".json" then Dc_obs.Obs.to_json ()
        else Dc_obs.Obs.to_prometheus ()
      in
      let oc = open_out path in
      output_string oc body;
      close_out oc
    | None -> ()
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a DBPL program")
    Term.(
      const run $ file $ strategy $ unchecked $ limit_flags $ domains_flag
      $ metrics_out $ data_dir)

let check_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"DBPL program")
  in
  let check file =
    handle_errors @@ fun () ->
    let program = Dc_lang.Parser.parse (read_file file) in
    (* execute declarations but strip queries: checking only *)
    let db = Dc_core.Database.create () in
    let env = Dc_lang.Elaborate.create db in
    let decls =
      List.filter
        (function
          | Dc_lang.Surface.D_query _ | Dc_lang.Surface.D_print _
          | Dc_lang.Surface.D_explain _ | Dc_lang.Surface.D_explain_analyze _
          | Dc_lang.Surface.D_show_metrics | Dc_lang.Surface.D_show_snapshot
          | Dc_lang.Surface.D_begin | Dc_lang.Surface.D_commit ->
            false
          | _ -> true)
        program
    in
    ignore (Dc_lang.Elaborate.run env decls);
    Fmt.pr "%s: OK (%d declarations)@." file (List.length program)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse, typecheck, and positivity-check a program")
    Term.(const check $ file)

(* Interactive loop: statements are buffered until a line ends with ';'
   (declarations using BEGIN ... END name; are therefore entered as one
   logical statement), then parsed and executed against a persistent
   database.  Errors keep the session alive. *)
let repl_cmd =
  let strategy =
    Arg.(
      value
      & opt strategy_conv Dc_core.Fixpoint.Seminaive
      & info [ "strategy" ] ~doc:"Fixpoint strategy: seminaive or naive")
  in
  let unchecked =
    Arg.(
      value & flag
      & info [ "unchecked" ] ~doc:"Disable the positivity check")
  in
  let repl strategy unchecked limits () =
    let db =
      Dc_core.Database.create ~strategy ~check_positivity:(not unchecked)
        ~limits ()
    in
    let env = Dc_lang.Elaborate.create db in
    Fmt.pr
      "dbpl — data constructors (VLDB 1985).  End statements with ';'; \
       Ctrl-D exits.@.";
    let buffer = Buffer.create 256 in
    (* a buffered chunk is incomplete when parsing fails exactly at the
       end of input (selector/constructor declarations continue past their
       first ';'); any other outcome — success or a mid-input error — is
       handed to the executor *)
    let contains msg needle =
      let nh = String.length msg and nn = String.length needle in
      let rec probe i =
        i + nn <= nh && (String.sub msg i nn = needle || probe (i + 1))
      in
      probe 0
    in
    let is_complete text =
      match Dc_lang.Parser.parse text with
      | _ -> true
      | exception Dc_lang.Parser.Parse_error msg -> not (contains msg "<eof>")
      | exception Dc_lang.Lexer.Lex_error msg ->
        not (contains msg "unterminated")
    in
    let rec loop () =
      Fmt.pr (if Buffer.length buffer = 0 then "dbpl> " else "  ... ");
      Format.pp_print_flush Format.std_formatter ();
      match In_channel.input_line stdin with
      | None -> Fmt.pr "@."
      | Some line ->
        Buffer.add_string buffer line;
        Buffer.add_char buffer '\n';
        let text = Buffer.contents buffer in
        let trimmed = String.trim text in
        if trimmed = "" then begin
          Buffer.clear buffer;
          loop ()
        end
        else if
          trimmed.[String.length trimmed - 1] = ';' && is_complete text
        then begin
          Buffer.clear buffer;
          (try
             let out = Dc_lang.Elaborate.run env (Dc_lang.Parser.parse text) in
             print_string out
           with e -> ignore (report Fmt.stdout e));
          loop ()
        end
        else loop ()
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive DBPL session")
    Term.(const repl $ strategy $ unchecked $ limit_flags $ domains_flag)

(* Multi-session serving: each FILE runs in its own session on its own
   thread, all over one shared database behind the server's writer
   thread; reads observe published snapshots.  With no FILE an
   interactive single-session console is started instead. *)
let serve_cmd =
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"DBPL programs, one session each")
  in
  let init_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "init" ] ~docv:"FILE"
          ~doc:"Execute $(docv) through a session before the concurrent ones start")
  in
  let max_sessions =
    Arg.(
      value
      & opt int 64
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Admission control: at most $(docv) concurrently open sessions")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data" ] ~docv:"DIR"
          ~doc:
            "Durable database directory: recover $(docv) on startup, log \
             every commit, checkpoint on shutdown (including SIGINT and \
             SIGTERM)")
  in
  let listen_addrs =
    Arg.(
      value
      & opt_all string []
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve the wire protocol on $(docv): unix:/path, /path, \
             tcp:host:port, host:port, or a bare port (binds 127.0.0.1; \
             port 0 picks an ephemeral port).  Repeatable.  The process \
             then serves until SIGINT/SIGTERM")
  in
  let serve files init max_sessions limits () data listen_addrs =
    handle_errors @@ fun () ->
    let db = Dc_core.Database.create ~limits () in
    let wal = Option.map (Dc_wal.Durable.open_dir ~db) data in
    let srv = Dc_server.Server.create ~max_sessions ~limits ?wal db in
    let listeners =
      List.map
        (fun a ->
          match Dc_net.Net.addr_of_string a with
          | Some addr -> Dc_net.Net.listen srv addr
          | None ->
            Fmt.epr "invalid --listen address: %s@." a;
            exit 1)
        listen_addrs
    in
    (* graceful shutdown: stop admitting, disconnect network clients, let
       the writer drain its queue (no commit dies mid-flight), take a
       final checkpoint, exit *)
    let graceful signame =
      Sys.Signal_handle
        (fun _ ->
          Fmt.epr "@.%s: draining writer and checkpointing...@." signame;
          List.iter Dc_net.Net.stop listeners;
          (try Dc_server.Server.shutdown srv
           with e -> Fmt.epr "shutdown failed: %s@." (Printexc.to_string e));
          exit 0)
    in
    Sys.set_signal Sys.sigint (graceful "SIGINT");
    Sys.set_signal Sys.sigterm (graceful "SIGTERM");
    let run_session src =
      let s = Dc_server.Server.open_session srv in
      Fun.protect
        ~finally:(fun () -> Dc_server.Server.close_session s)
        (fun () -> Dc_server.Server.execute s src)
    in
    (match init with
    | Some f -> print_string (run_session (read_file f))
    | None -> ());
    (match files with
    | [] when listeners <> [] -> ()
    | [] ->
      (* interactive single-session console over the server *)
      let s = Dc_server.Server.open_session srv in
      Fmt.pr
        "dbpl serve — session %d at snapshot version %d.  End statements \
         with ';'; Ctrl-D exits.@."
        (Dc_server.Server.session_id s)
        (Dc_core.Database.version db);
      let buffer = Buffer.create 256 in
      let rec loop () =
        Fmt.pr (if Buffer.length buffer = 0 then "dbpl> " else "  ... ");
        Format.pp_print_flush Format.std_formatter ();
        match In_channel.input_line stdin with
        | None -> Fmt.pr "@."
        | Some line ->
          Buffer.add_string buffer line;
          Buffer.add_char buffer '\n';
          let text = Buffer.contents buffer in
          let trimmed = String.trim text in
          if trimmed = "" then begin
            Buffer.clear buffer;
            loop ()
          end
          else if trimmed.[String.length trimmed - 1] = ';' then begin
            Buffer.clear buffer;
            (try print_string (Dc_server.Server.execute s text)
             with e -> ignore (report Fmt.stdout e));
            loop ()
          end
          else loop ()
      in
      loop ();
      Dc_server.Server.close_session s
    | files ->
      (* one session per file, all running concurrently; outputs are
         collected per session and printed in file order once every
         session has finished *)
      let results =
        files
        |> List.map (fun f ->
               let src = read_file f in
               let cell = ref (Ok "") in
               let th =
                 Thread.create
                   (fun () ->
                     cell :=
                       match run_session src with
                       | out -> Ok out
                       | exception e -> Error e)
                   ()
               in
               (f, th, cell))
      in
      List.iter
        (fun (f, th, cell) ->
          Thread.join th;
          Fmt.pr "-- session: %s@." f;
          match !cell with
          | Ok out -> print_string out
          | Error e -> Fmt.pr "session failed: %s@." (Printexc.to_string e))
        results);
    match listeners with
    | [] -> Dc_server.Server.shutdown srv
    | listeners ->
      List.iter
        (fun l ->
          match Dc_net.Net.bound_addr l with
          | Unix.ADDR_UNIX path -> Fmt.pr "listening on unix:%s@." path
          | Unix.ADDR_INET (a, p) ->
            Fmt.pr "listening on tcp:%s:%d@." (Unix.string_of_inet_addr a) p)
        listeners;
      Format.pp_print_flush Format.std_formatter ();
      (* serve until a signal; the handlers above exit the process *)
      while true do
        Thread.delay 3600.
      done
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve one database to concurrent sessions (one per FILE, or an \
          interactive console)")
    Term.(
      const serve $ files $ init_file $ max_sessions $ limit_flags
      $ domains_flag $ data_dir $ listen_addrs)

(* Wire-protocol client: run -e statements (or an interactive console)
   against a remote [dbpl serve --listen]. *)
let connect_cmd =
  let addr =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR"
          ~doc:"Server address: unix:/path, /path, tcp:host:port, or host:port")
  in
  let stmts =
    Arg.(
      value
      & opt_all string []
      & info [ "e"; "execute" ] ~docv:"STMT"
          ~doc:"Execute $(docv) and print its output (repeatable); without \
                $(opt), statements are read interactively")
  in
  let connect addr stmts =
    let a =
      match Dc_net.Net.addr_of_string addr with
      | Some a -> a
      | None ->
        Fmt.epr "invalid address: %s@." addr;
        exit 1
    in
    let c =
      try Dc_net.Net.Client.connect a
      with
      | Unix.Unix_error (e, _, _) ->
        Fmt.epr "cannot connect to %a: %s@." Dc_net.Net.pp_addr a
          (Unix.error_message e);
        exit 1
      | Dc_net.Wire.Protocol_error msg ->
        Fmt.epr "handshake with %a failed: %s@." Dc_net.Net.pp_addr a msg;
        exit 1
    in
    let run src =
      try print_string (Dc_net.Net.Client.exec c src) with
      | Dc_net.Net.Client.Remote (code, msg) ->
        Fmt.pr "%a error: %s@." Dc_net.Wire.pp_error_code code msg
      | Dc_net.Net.Timeout -> Fmt.pr "request timed out@."
    in
    (match stmts with
    | _ :: _ -> List.iter run stmts
    | [] ->
      Fmt.pr "dbpl connect — %a.  End statements with ';'; Ctrl-D exits.@."
        Dc_net.Net.pp_addr a;
      let buffer = Buffer.create 256 in
      let rec loop () =
        Fmt.pr (if Buffer.length buffer = 0 then "dbpl> " else "  ... ");
        Format.pp_print_flush Format.std_formatter ();
        match In_channel.input_line stdin with
        | None -> Fmt.pr "@."
        | Some line ->
          Buffer.add_string buffer line;
          Buffer.add_char buffer '\n';
          let text = Buffer.contents buffer in
          let trimmed = String.trim text in
          if trimmed = "" then begin
            Buffer.clear buffer;
            loop ()
          end
          else if trimmed.[String.length trimmed - 1] = ';' then begin
            Buffer.clear buffer;
            run text;
            loop ()
          end
          else loop ()
      in
      loop ());
    Dc_net.Net.Client.close c
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:"Connect to a serving dbpl over the wire protocol")
    Term.(const connect $ addr $ stmts)

let () =
  let doc = "DBPL with data constructors (Jarke, Linnemann & Schmidt, VLDB 1985)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "dbpl" ~doc)
          [ run_cmd; check_cmd; repl_cmd; serve_cmd; connect_cmd ]))
