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
     from) transparently falls back to rebuilding into a private cache on
     its next lookup, so sharing is an optimization, never a correctness
     concern. *)

open Dc_relation

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
      (* a frozen store may be read by several threads at once: index
         lookups build private throwaway indexes instead of installing a
         cache that concurrent readers would then mutate together *)
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

(* Push new tuples of [pred] into every cached index of that predicate. *)
let extend_cached cache pred fresh =
  Hashtbl.iter
    (fun (p, _) idx -> if String.equal p pred then TS.iter (Index.add idx) fresh)
    cache.tables

(* Drop departed tuples of [pred] from every cached index of that
   predicate — the deletion mirror of [extend_cached].  [Index.remove]
   undoes one insertion, which matches: the add path only ever pushes a
   genuinely-new tuple once. *)
let shrink_cached cache pred gone =
  Hashtbl.iter
    (fun (p, _) idx ->
      if String.equal p pred then TS.iter (Index.remove idx) gone)
    cache.tables

let owns store = store.cache.owner = store.version

let add store pred tuple =
  let set = find store pred in
  if TS.mem tuple set then store
  else
    let version = new_version () in
    let tuples = SM.add pred (TS.add tuple set) store.tuples in
    if owns store then begin
      let cache = store.cache in
      extend_cached cache pred (TS.singleton tuple);
      cache.owner <- version;
      { tuples; version; cache; frozen = false }
    end
    else { tuples; version; cache = fresh_cache version; frozen = false }

let add_set store pred set =
  if TS.is_empty set then store
  else
    let old = find store pred in
    let version = new_version () in
    let tuples = SM.add pred (TS.union set old) store.tuples in
    if owns store then begin
      let cache = store.cache in
      (* Only the genuinely new tuples may enter the indexes: buckets hold
         lists, so re-adding a known tuple would duplicate lookup rows. *)
      extend_cached cache pred (TS.diff set old);
      cache.owner <- version;
      { tuples; version; cache; frozen = false }
    end
    else { tuples; version; cache = fresh_cache version; frozen = false }

let remove_set store pred set =
  let old = find store pred in
  let gone = TS.inter set old in
  if TS.is_empty gone then store
  else
    let version = new_version () in
    let remaining = TS.diff old gone in
    let tuples =
      if TS.is_empty remaining then SM.remove pred store.tuples
      else SM.add pred remaining store.tuples
    in
    if owns store then begin
      let cache = store.cache in
      shrink_cached cache pred gone;
      cache.owner <- version;
      { tuples; version; cache; frozen = false }
    end
    else { tuples; version; cache = fresh_cache version; frozen = false }

let remove store pred tuple = remove_set store pred (TS.singleton tuple)

let singleton_set pred set = add_set (empty ()) pred set

let of_list l =
  List.fold_left (fun st (pred, tuple) -> add st pred tuple) (empty ()) l

let preds store = List.map fst (SM.bindings store.tuples)

let iter f store = SM.iter (fun pred set -> TS.iter (f pred) set) store.tuples

let equal a b = SM.equal TS.equal a.tuples b.tuples

(* Tuples of [pred] whose projection onto [positions] equals [key].
   [positions = []] degenerates to one bucket under the empty key image,
   i.e. the full extent — cached like any other access path instead of
   re-materializing [TS.elements] per call. *)
let build_index store pred positions =
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

let lookup store pred positions key =
  Index.lookup (ensure_index store pred positions) key

(* Parallel-round support: build the (pred, positions) index now, on the
   calling domain.  A round driver prewarms every keyed access path its
   pipelines will probe before fanning out, after which concurrent
   [lookup]s from worker domains only *read* the cache table and the
   index — [lookup]'s lazy build and cache reassignment never fire off
   the main domain. *)
let prewarm store pred positions = ignore (ensure_index store pred positions)

(* Hash-partition one tuple set into [shards] disjoint covering subsets
   keyed on the cached structural tuple hash.  Deterministic for a fixed
   shard count: the hash depends only on the tuple's values. *)
let partition_set ~shards set =
  if shards <= 1 then [| set |]
  else begin
    let out = Array.make shards TS.empty in
    TS.iter
      (fun t ->
        let i = Tuple.hash t mod shards in
        out.(i) <- TS.add t out.(i))
      set;
    out
  end

(* Partition a whole store predicate-wise with [partition_set].  Each
   shard is a private store with a private (empty) index cache, so lazy
   index builds over shard-local deltas stay single-domain. *)
let partition ~shards store =
  if shards <= 1 then [| store |]
  else begin
    let out = Array.init shards (fun _ -> ref SM.empty) in
    SM.iter
      (fun pred set ->
        Array.iteri
          (fun i s -> if not (TS.is_empty s) then out.(i) := SM.add pred s !(out.(i)))
          (partition_set ~shards set))
      store.tuples;
    Array.map
      (fun m ->
        let version = new_version () in
        { tuples = !m; version; cache = fresh_cache version; frozen = false })
      out
  end

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
