(* Per-evaluation index cache (runtime kernel).

   Relations are immutable values, so a hash index built on one is valid
   for exactly that value.  The cache keys entries on *physical identity*
   of the relation plus the indexed positions: a hit is only possible for
   the very record that was indexed, which makes cache consistency trivial
   without equality checks or generation counters.

   Fixpoint evaluators additionally [advance] the cache when a recursive
   relation grows monotonically from [old_rel] to [next] by [delta]: the
   existing index is extended in place with [delta]'s tuples and re-keyed
   to [next], so across rounds each access path is built once and then
   grows by deltas.  Only entries that were looked up since their last
   advance are carried forward — an index no round probes anymore is
   dropped instead of being grown forever.

   Entries live in a small move-to-front list — the working set of a
   constructor body is a handful of (relation, positions) pairs, and the
   list keeps identity comparison cheap and eviction LRU-ish. *)

type entry = {
  mutable e_rel : Relation.t;
  e_positions : int list;
  e_index : Index.t;
  mutable e_warm : bool; (* hit since last advance? *)
}

(* Open transaction (see [protect]): enough state to restore the cache
   exactly on abort.  The entry list spine and each entry's mutable
   fields are snapshotted eagerly; in-place [Index.extend]s performed by
   [advance] are journalled as (entry, delta) pairs and undone tuple by
   tuple via [Index.remove]. *)
type txn = {
  saved_entries : entry list;
  saved_fields : (entry * Relation.t * bool) list; (* (e, e_rel, e_warm) *)
  mutable advances : (entry * Relation.t) list;
}

type t = {
  mutable entries : entry list;
  cap : int;
  mutable txn : txn option;
}

let create ?(cap = 64) () = { entries = []; cap; txn = None }

let clear c = c.entries <- []

let same_positions = List.equal Int.equal

let rec truncate n = function
  | [] -> []
  | _ when n = 0 -> []
  | e :: rest -> e :: truncate (n - 1) rest

let get c positions rel =
  let rec find acc = function
    | [] -> None
    | e :: rest ->
      if e.e_rel == rel && same_positions e.e_positions positions then begin
        (* move-to-front *)
        e.e_warm <- true;
        c.entries <- e :: List.rev_append acc rest;
        Some e.e_index
      end
      else find (e :: acc) rest
  in
  match find [] c.entries with
  | Some idx -> idx
  | None ->
    let idx = Index.build positions rel in
    let e =
      { e_rel = rel; e_positions = positions; e_index = idx; e_warm = true }
    in
    c.entries <- e :: truncate (c.cap - 1) c.entries;
    idx

let advance c ~old_rel ~delta ~next =
  c.entries <-
    List.filter
      (fun e ->
        if e.e_rel == old_rel then
          if e.e_warm then begin
            Index.extend e.e_index delta;
            (match c.txn with
            | Some txn -> txn.advances <- (e, delta) :: txn.advances
            | None -> ());
            e.e_rel <- next;
            e.e_warm <- false;
            true
          end
          else false (* cold: nobody probed it since last growth — drop *)
        else true)
      c.entries

let length c = List.length c.entries

let protect c f =
  match c.txn with
  | Some _ ->
      (* Nested expansions share the outermost transaction: the outer
         rollback restores past every inner mutation anyway. *)
      f ()
  | None ->
      let txn =
        {
          saved_entries = c.entries;
          saved_fields = List.map (fun e -> (e, e.e_rel, e.e_warm)) c.entries;
          advances = [];
        }
      in
      c.txn <- Some txn;
      let rollback () =
        (* Newest advance first: buckets are prepend-on-add, so undoing
           in reverse insertion order peels list heads. *)
        List.iter
          (fun (e, delta) -> Relation.iter (Index.remove e.e_index) delta)
          txn.advances;
        List.iter
          (fun (e, rel, warm) ->
            e.e_rel <- rel;
            e.e_warm <- warm)
          txn.saved_fields;
        c.entries <- txn.saved_entries
      in
      let finish () = c.txn <- None in
      (match f () with
      | v ->
          finish ();
          v
      | exception exn ->
          let bt = Printexc.get_raw_backtrace () in
          rollback ();
          finish ();
          Printexc.raise_with_backtrace exn bt)

(* Deep observational snapshot, for tests asserting abort atomicity. *)
type snapshot = (Relation.t * int list * Tuple.t list * bool) list

let snapshot c =
  List.map
    (fun e ->
      let tuples = ref [] in
      Index.iter (fun _ bucket -> tuples := bucket @ !tuples) e.e_index;
      let tuples = List.sort Tuple.compare !tuples in
      (e.e_rel, e.e_positions, tuples, e.e_warm))
    c.entries

let snapshot_equal (a : snapshot) (b : snapshot) =
  List.length a = List.length b
  && List.for_all2
       (fun (ra, pa, ta, wa) (rb, pb, tb, wb) ->
         ra == rb && pa = pb && wa = wb && List.equal Tuple.equal ta tb)
       a b
