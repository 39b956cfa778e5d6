(** Range-nesting rewrites (paper §4, rules N1–N3 of [JaKo 83]) and
    definition inlining ("decompilation"):

    {v
    N1: {EACH r IN R: p1 AND p2}  <=> {EACH r IN {EACH r' IN R: p1}: p2}
    N2: SOME r IN R (p1 AND p2)   <=> SOME r IN {EACH r' IN R: p1} (p2)
    N3: ALL r IN R (NOT p1 OR p2) <=> ALL r IN {EACH r' IN R: p1} (p2)
    v}

    The optimizer uses the [<==] direction: selector and (acyclic)
    constructor applications are replaced by their instantiated
    definitions, then single-branch nested comprehensions are flattened
    back into the surrounding predicate. *)

open Dc_calculus
open Ast

type names
(** A supply of fresh variable names, one per rewrite: its names are
    distinct from each other and from every source variable, and
    numbered from 1 whatever was rewritten before. *)

val names : unit -> names

val standardize_apart : names -> branch -> branch
(** Fresh names for all the branch's binders, renamed wherever they are
    in scope. *)

val instantiate_constructor :
  names:names ->
  schema_of:(range -> Dc_relation.Schema.t) ->
  Defs.constructor_def ->
  range ->
  arg list ->
  range
(** Close a constructor over an actual base and arguments (§4 Cases 2–3):
    its body with formal/parameters substituted, attributes retyped, and
    binders standardized apart.  Only sound to {e inline} for acyclic
    definitions — the caller guards recursion. *)

val flatten_range : range -> range
val flatten_formula : formula -> formula
(** N2/N3 [<==] inside quantifier ranges. *)

val decompile :
  names:names ->
  schema_of:(range -> Dc_relation.Schema.t) ->
  selector_of:(string -> Defs.selector_def option) ->
  constructor_of:(string -> Defs.constructor_def option) ->
  is_recursive:(string -> bool) ->
  range ->
  range
(** Inline every selector application and every acyclic constructor
    application, then flatten, to a fixed point. *)
