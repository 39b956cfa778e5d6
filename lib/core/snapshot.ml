(* An immutable, published database state.

   A snapshot is what a reader session holds: the persistent relation
   bindings, the catalog (selectors/constructors), the evaluation
   configuration and one frozen serve closure per Live maintained view.
   Everything inside is either persistent data (relations, maps) or a
   frozen structure that is never mutated after publication (a serve
   closure's one memo cell is filled atomically), so snapshots are safe
   to query from any number of threads concurrently while the writer
   publishes successors.

   Capture and publication live in {!Database}; this module owns the
   type and the read-only operations (queries against the snapshot). *)

open Dc_relation
open Dc_calculus
module Guard = Dc_guard.Guard
module SM = Map.Make (String)

(* A Live maintained view, frozen at publish time: the closure answers a
   constructor application from the view's frozen extent when the
   application matches what was materialized, and declines otherwise. *)
type frozen_serve =
  Defs.constructor_def -> Relation.t -> Eval.arg_value list -> Relation.t option

type frozen_view = {
  fv_name : string;
  fv_application : Ast.range; (* the application the view extends *)
  fv_stale : bool;
  fv_serve : frozen_serve option; (* [None] iff the view was stale *)
}

(* The database's state proper (DBPL's relation variables plus the
   selectors and constructors defined over them, with the settings
   evaluation runs under): the value the writer works on, and what a
   snapshot publishes. *)
type state = {
  catalog : int;
      (* catalog version: moves only with commits that change how a
         statement types or lowers (relation declarations and schemas,
         selectors, constructors, maintained views) *)
  rels : Relation.t SM.t;
  selectors : Defs.selector_def SM.t;
  constructors : Defs.constructor_def SM.t;
  strategy : Fixpoint.strategy;
  limits : Guard.limits;
}

type t = {
  version : int; (* monotone: one publication per commit *)
  state : state;
  views : frozen_view list;
  durable : int option;
      (* LSN of the last durable WAL record / checkpoint covering this
         state; [None] when the database has no write-ahead log attached *)
}

let version s = s.version
let catalog_version s = s.state.catalog
let durable_lsn s = s.durable
let relation_count s = SM.cardinal s.state.rels
let relation_names s = List.map fst (SM.bindings s.state.rels)

let get s name = SM.find_opt name s.state.rels

let view_names s = List.map (fun v -> v.fv_name) s.views

(* ------------------------------------------------------------------ *)
(* Evaluation against a state: the one builder of both environments, for
   a published snapshot and for the writer's working set alike *)

let typecheck_env s =
  let st = s.state in
  Typecheck.env
    ~selectors:(List.map snd (SM.bindings st.selectors))
    ~constructors:(List.map snd (SM.bindings st.constructors))
    ~views:(List.map (fun v -> v.fv_application) s.views)
    (List.map (fun (n, r) -> (n, Relation.schema r)) (SM.bindings st.rels))

(* Every lookup resolves inside the state: {!Resolve.application} serves
   from [serve] (by default the frozen view extents) and otherwise
   evaluates over the state's values only.  Keys on a relation's leading
   columns are range scans of its ordered set; other keys build indexes
   in the evaluation's private cache. *)
let eval_env ?trace ?guard ?serve ?on_stats s =
  let st = s.state in
  let guard =
    match guard with Some g -> g | None -> Guard.of_limits st.limits
  in
  let serve =
    match serve with
    | Some serve -> serve
    | None ->
      fun def base args ->
        List.find_map
          (fun v -> Option.bind v.fv_serve (fun serve -> serve def base args))
          s.views
  in
  let hooks =
    {
      Eval.selector_def = (fun n -> SM.find_opt n st.selectors);
      Eval.constructor_def = (fun n -> SM.find_opt n st.constructors);
      Eval.on_select =
        (fun env base def args -> Selector.apply env def base args);
      Eval.on_construct =
        Resolve.application
          ~relation:(fun n -> SM.find_opt n st.rels)
          ~serve ~strategy:st.strategy ?on_stats;
    }
  in
  Eval.make_env ~hooks ?trace ~guard (SM.bindings st.rels)

let check_query s range = Typecheck.check_query (typecheck_env s) range

let query ?guard s range =
  check_query s range;
  Eval.eval_range (eval_env ?guard s) range

let pp_summary ppf s =
  Fmt.pf ppf "version %d: %d relation%s, %d view%s%s%s" s.version
    (relation_count s)
    (if relation_count s = 1 then "" else "s")
    (List.length s.views)
    (if List.length s.views = 1 then "" else "s")
    (match
       List.filter_map
         (fun v -> if v.fv_stale then Some v.fv_name else None)
         s.views
     with
    | [] -> ""
    | stale -> Fmt.str " (stale: %s)" (String.concat ", " stale))
    (match s.durable with
    | None -> ""
    | Some lsn -> Fmt.str ", durable lsn %d" lsn)
