(* The machine fingerprint every output starts with: numbers from two
   hosts, or two DC_DOMAINS settings, are not comparable. *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

(* The source revision, when the tree is a git checkout (read from .git,
   without running git). *)
let revision () =
  match read_file ".git/HEAD" with
  | None -> "unknown (not a git checkout)"
  | Some head -> (
    let head = String.trim head in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> (
      match read_file (Filename.concat ".git" r) with
      | Some sha -> String.trim sha
      | None -> (
        let packed = Option.value ~default:"" (read_file ".git/packed-refs") in
        match
          List.find_opt
            (fun l -> String.ends_with ~suffix:(" " ^ r) l)
            (String.split_on_char '\n' packed)
        with
        | Some l -> List.hd (String.split_on_char ' ' l)
        | None -> r))
    | _ -> head)

(* Filesystem type of the mount holding [path]: fsync cost depends on it. *)
let fs_type path =
  let real = try Unix.realpath path with Unix.Unix_error _ -> path in
  let mounts = Option.value ~default:"" (read_file "/proc/mounts") in
  let best =
    List.fold_left
      (fun best line ->
        match String.split_on_char ' ' line with
        | _ :: mnt :: fs :: _ ->
          let inside =
            mnt = "/" || real = mnt || String.starts_with ~prefix:(mnt ^ "/") real
          in
          (match best with
          | Some (m, _) when String.length m >= String.length mnt -> best
          | _ -> if inside then Some (mnt, fs) else best)
        | _ -> best)
      None
      (String.split_on_char '\n' mounts)
  in
  match best with Some (m, fs) -> Printf.sprintf "%s (%s)" fs m | None -> "unknown"

(* The CPUs this process, and the server it starts, may run on. *)
let cpus () =
  let status = Option.value ~default:"" (read_file "/proc/self/status") in
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix:"Cpus_allowed_list:" l)
      (String.split_on_char '\n' status)
  with
  | Some l -> String.trim (List.nth (String.split_on_char ':' l) 1)
  | None -> "unknown"

let page_cache_note =
  "killing the server with SIGKILL leaves the OS page cache intact, so \
   recover_s times recovery from the page cache, not from a storage device"

let fields ~data_dir =
  [
    ("cores", string_of_int (Domain.recommended_domain_count ()));
    ("cpus_allowed", cpus ());
    ("ocaml", Sys.ocaml_version);
    ("DC_DOMAINS", Option.value ~default:"unset" (Sys.getenv_opt "DC_DOMAINS"));
    (* the server inherits this environment and applies the same rule *)
    ("server_domains", string_of_int (Dc_par.Par.domains ()));
    ("revision", revision ());
    ("data_fs", fs_type data_dir);
    ("note", page_cache_note);
  ]
