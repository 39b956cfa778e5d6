(* Fact store for the bottom-up Datalog engines: a map from predicate name
   to a set of ground tuples, with hash indexes per (predicate, bound
   positions).

   Runtime kernel: indexes are maintained delta-incrementally instead of
   being dropped on every insertion.  The tuple map is persistent, but a
   mutable index cache is threaded along the linear chain of stores the
   engines actually produce (each round's [add_set] yields the next
   store).  A global version counter identifies which store in the chain
   currently "owns" the cache:

   - [add]/[add_set] on the owning store push just the new tuples into
     every cached index of that predicate and hand ownership to the child
     store, so semi-naive rounds extend indexes by their deltas;
   - a store that lost ownership (an older snapshot that was branched
     from) transparently builds a private cache on its next lookup that
     needs an index, so sharing is an optimization, never a correctness
     concern.

   Access paths (relations follow the same rule, see
   [Extent.of_relation]): the predicate's tuple set is ordered
   lexicographically by column, so

   1. a warm hash index the store owns for exactly that path answers
      the key;
   2. otherwise a key on every column is a membership test of the set,
      and a key on the leading columns [0..j-1] (in any order) a range
      scan of it — a lookup never builds an index for either;
   3. only a key on other columns builds (and caches) a hash index.

   So a store branched away from the chain — the pre/mid/post states of
   an incremental view update — answers leading-column keys at the cost
   of a descent, instead of rebuilding a view-sized index; a fixpoint
   that probes one growing store every round ([Seminaive]) keeps its hash
   paths by [prewarm]ing them when it starts. *)

open Dc_relation
module Extent = Dc_exec.Extent

module TS = Relation.Tuple_set
module SM = Map.Make (String)

type cache = {
  mutable owner : int; (* version of the store allowed to use/extend this *)
  tables : (string * int list, Index.t) Hashtbl.t;
}

type t = {
  tuples : TS.t SM.t;
  version : int;
  mutable cache : cache;
  frozen : bool;
      (* a frozen store may be read by several threads at once: lookups
         that need an index build a private throwaway one instead of
         installing a cache that concurrent readers would then mutate
         together *)
}

(* Atomic: snapshot readers freeze stores and writer threads advance the
   live chain concurrently, and versions must stay globally unique. *)
let version_counter = Atomic.make 0

let new_version () = Atomic.fetch_and_add version_counter 1 + 1

let fresh_cache version = { owner = version; tables = Hashtbl.create 16 }

let empty () =
  let version = new_version () in
  { tuples = SM.empty; version; cache = fresh_cache version; frozen = false }

let find store pred =
  Option.value (SM.find_opt pred store.tuples) ~default:TS.empty

let cardinal store pred = TS.cardinal (find store pred)

let total store = SM.fold (fun _ s n -> n + TS.cardinal s) store.tuples 0

let mem store pred tuple = TS.mem tuple (find store pred)

(* The cached indexes of [pred]; a store step computes the tuples to
   push into (or drop from) them only when there are some. *)
let cached cache pred =
  Hashtbl.fold
    (fun (p, _) idx acc -> if String.equal p pred then idx :: acc else acc)
    cache.tables []

let owns store = store.cache.owner = store.version

(* The child of [store] with [tuples]: it takes the index cache when
   [store] owns it, after [maintain] has brought the cached indexes of
   [pred] up to date. *)
let step store pred tuples maintain =
  let version = new_version () in
  if owns store then begin
    let cache = store.cache in
    (match cached cache pred with [] -> () | idxs -> maintain idxs);
    cache.owner <- version;
    { tuples; version; cache; frozen = false }
  end
  else { tuples; version; cache = fresh_cache version; frozen = false }

let add store pred tuple =
  let set = find store pred in
  if TS.mem tuple set then store
  else
    step store pred
      (SM.add pred (TS.add tuple set) store.tuples)
      (List.iter (fun idx -> Index.add idx tuple))

let add_set store pred set =
  if TS.is_empty set then store
  else
    let old = find store pred in
    step store pred
      (SM.add pred (TS.union set old) store.tuples)
      (fun idxs ->
        (* Only the genuinely new tuples may enter the indexes: buckets
           hold lists, so re-adding a known tuple would duplicate lookup
           rows. *)
        let fresh = TS.diff set old in
        List.iter (fun idx -> TS.iter (Index.add idx) fresh) idxs)

(* [Index.remove] undoes one insertion, which matches: the add path only
   ever pushes a genuinely-new tuple once. *)
let remove_set store pred set =
  let old = find store pred in
  if TS.disjoint set old then store
  else
    let remaining = TS.diff old set in
    step store pred
      (if TS.is_empty remaining then SM.remove pred store.tuples
       else SM.add pred remaining store.tuples)
      (fun idxs ->
        let gone = TS.inter set old in
        List.iter (fun idx -> TS.iter (Index.remove idx) gone) idxs)

let remove store pred tuple = remove_set store pred (TS.singleton tuple)

let singleton_set pred set = add_set (empty ()) pred set

(* One [add_set] per predicate, so a batch costs one store step per
   predicate rather than one per tuple. *)
let add_list store l =
  let by_pred =
    List.fold_left
      (fun m (pred, t) ->
        SM.update pred
          (fun s -> Some (TS.add t (Option.value s ~default:TS.empty)))
          m)
      SM.empty l
  in
  SM.fold (fun pred set st -> add_set st pred set) by_pred store

let of_list l = add_list (empty ()) l

let preds store = List.map fst (SM.bindings store.tuples)

let iter f store = SM.iter (fun pred set -> TS.iter (f pred) set) store.tuples

let equal a b = SM.equal TS.equal a.tuples b.tuples

(* Index builds per predicate, process-wide: the machine-independent
   witness that an incremental update builds no index over a view. *)
let builds : (string, int) Hashtbl.t = Hashtbl.create 16
let builds_lock = Mutex.create ()

let index_builds pred =
  Mutex.protect builds_lock (fun () ->
      Option.value (Hashtbl.find_opt builds pred) ~default:0)

(* Tuples of [pred] whose projection onto [positions] equals [key].
   [positions = []] degenerates to one bucket under the empty key image,
   i.e. the full extent — cached like any other access path instead of
   re-materializing [TS.elements] per call. *)
let build_index store pred positions =
  Mutex.protect builds_lock (fun () ->
      Hashtbl.replace builds pred
        (1 + Option.value (Hashtbl.find_opt builds pred) ~default:0));
  let set = find store pred in
  let idx = Index.create ~size:(max 16 (TS.cardinal set)) positions in
  TS.iter (Index.add idx) set;
  idx

let ensure_index store pred positions =
  if store.frozen then
    (* never install a cache on a frozen store: concurrent readers would
       share (and race on) the same hashtable.  Rare path — a frozen view
       is served as a relation wrapping its tuple set ([to_relation]), and
       readers probe that relation, not the store. *)
    build_index store pred positions
  else
    let cache =
      if owns store then store.cache
      else begin
        (* this snapshot was branched away from the cache's owning chain;
           rebuild into a private cache so stale readers stay correct *)
        let c = fresh_cache store.version in
        store.cache <- c;
        c
      end
    in
    let cache_key = (pred, positions) in
    match Hashtbl.find_opt cache.tables cache_key with
    | Some idx -> idx
    | None ->
      let idx = build_index store pred positions in
      Hashtbl.replace cache.tables cache_key idx;
      idx

(* The index this store owns for the path, if one is warm; never builds
   and never mutates. *)
let warm_index store pred positions =
  if owns store && not store.frozen then
    Hashtbl.find_opt store.cache.tables (pred, positions)
  else None

(* The access-path rule of the header.  [positions = []] stays on the
   cached-index path: a range scan would re-materialize the whole extent
   on every call. *)
let lookup_values store pred positions values =
  match warm_index store pred positions with
  | Some idx -> Index.lookup_values idx values
  | None -> (
    match
      if positions = [] then None else Extent.prefix_key positions values
    with
    | None -> Index.lookup_values (ensure_index store pred positions) values
    | Some key -> (
      let set = find store pred in
      match TS.min_elt_opt set with
      | None -> []
      | Some t when Tuple.arity t = List.length key -> (
        match TS.find_opt (Tuple.of_list key) set with
        | Some t -> [ t ]
        | None -> [])
      | Some _ -> Relation.prefix_scan set key))

let lookup store pred positions key =
  lookup_values store pred positions (Tuple.to_list key)

(* Build the (pred, positions) index now, whatever the path: a fixpoint
   that probes one growing store every round keeps its paths warm this
   way (rule 1). *)
let prewarm store pred positions = ignore (ensure_index store pred positions)

(* Drop the owned indexes on the paths rule 2 answers without one: a
   long-lived store that takes small delta steps pays for every cached
   index on every step, and a leading-column path that a fixpoint
   prewarmed only costs it there. *)
let drop_prefix_paths store =
  if owns store && not store.frozen then
    Hashtbl.filter_map_inplace
      (fun (_, positions) idx ->
        let leading =
          List.sort Int.compare positions
          = List.init (List.length positions) Fun.id
        in
        if positions <> [] && leading then None else Some idx)
      store.cache.tables

(* Publish an immutable view of the store for snapshot readers.  The
   tuple map is persistent, so this is O(1); the frozen store never
   installs an index cache (see [ensure_index]), so concurrent readers
   share only immutable structure and never touch the writer's live
   ownership chain. *)
let freeze store =
  { tuples = store.tuples;
    version = new_version ();
    cache = { owner = 0; tables = Hashtbl.create 1 };
    frozen = true }

let is_frozen store = store.frozen

(* Conversions to/from {!Dc_relation.Relation}.  [TS] is the relation's
   own set type, so [to_relation] shares the set in O(1). *)
let to_relation schema store pred =
  Relation.of_set_unchecked schema (find store pred)

let of_relation pred rel store =
  Relation.fold (fun t st -> add st pred t) rel store

let pp ppf store =
  SM.iter
    (fun pred set ->
      TS.iter (fun t -> Fmt.pf ppf "%s%a@." pred Tuple.pp t) set)
    store.tuples
