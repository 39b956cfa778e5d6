(** The catalog image: a database's declarations as DBPL source.  A WAL
    checkpoint embeds it, and recovery replays it through the ordinary
    front end (parser, type checker, positivity check), so a recovered
    database re-validates its catalog. *)

open Dc_core

val render_catalog : Database.t -> string
(** The catalog as parser-compatible DBPL source.  Mutually recursive
    constructors are emitted adjacently, in dependency order. *)

val load_catalog : ?db:Database.t -> string -> Database.t
(** Elaborate catalog source into a fresh (or given) database. *)
