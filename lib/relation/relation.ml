(* Relations: finite, typed sets of tuples with the §2.2 key constraint.

   The legal values of a relation variable are tuple sets in which the key
   attributes identify elements uniquely:

     ALL r1,r2 IN rel (r1.key = r2.key ==> r1 = r2)

   Relations are persistent.  Their rows take one of two physical shapes,
   chosen by how the relation was built, below the logical level (§4):

   - a balanced-tree set, which the fixpoint engine and every update rely
     on for cheap snapshots of iteration states;
   - a run: a strictly increasing tuple array, which a result emitted in
     order (a closure traversal) is wrapped as in O(1).

   Reads (cardinality, iteration, folds, membership and prefix scans by
   binary search) work on a run in place.  Any other set operation derives
   the tree from it once, in linear time, and keeps it in the run. *)

module Tuple_set = Set.Make (Tuple)

(* The tree derived from [arr] is written to [tree] unsynchronised: pool
   domains may read one relation at once, and a lost race costs a
   duplicate build of an equal tree, never an exception. *)
type run = {
  arr : Tuple.t array;
  mutable tree : Tuple_set.t option;
}

type rows =
  | Tree of Tuple_set.t
  | Run of run

type t = {
  schema : Schema.t;
  rows : rows;
}

exception Key_violation of string
exception Type_mismatch of string

let key_violation fmt = Fmt.kstr (fun s -> raise (Key_violation s)) fmt
let type_mismatch fmt = Fmt.kstr (fun s -> raise (Type_mismatch s)) fmt

let schema r = r.schema

let empty schema = { schema; rows = Tree Tuple_set.empty }

(* A union of two disjoint sets whose ranges do not overlap splits the
   larger one once per level of the smaller's right spine, so unions of
   halves build the set in time linear in its size, with no comparison
   sort. *)
let sorted_set tuples =
  let rec build lo hi =
    match hi - lo with
    | 0 -> Tuple_set.empty
    | 1 -> Tuple_set.singleton tuples.(lo)
    | n ->
      let mid = lo + (n / 2) in
      Tuple_set.union (build lo mid) (build mid hi)
  in
  build 0 (Array.length tuples)

let tree r =
  match r.rows with
  | Tree set -> set
  | Run { tree = Some set; _ } -> set
  | Run run ->
    let set = sorted_set run.arr in
    run.tree <- Some set;
    set

let with_tree r set = { r with rows = Tree set }

let cardinal r =
  match r.rows with
  | Tree set -> Tuple_set.cardinal set
  | Run { arr; _ } -> Array.length arr

let is_empty r =
  match r.rows with
  | Tree set -> Tuple_set.is_empty set
  | Run { arr; _ } -> Array.length arr = 0

(* The first index in [lo, hi) of the run at which [below] turns false;
   [below] is monotone along the run, true then false. *)
let rec first_not arr below lo hi =
  if lo >= hi then lo
  else
    let mid = lo + ((hi - lo) / 2) in
    if below arr.(mid) then first_not arr below (mid + 1) hi
    else first_not arr below lo mid

let mem t r =
  match r.rows with
  | Tree set -> Tuple_set.mem t set
  | Run { arr; _ } ->
    let n = Array.length arr in
    let i = first_not arr (fun u -> Tuple.compare u t < 0) 0 n in
    i < n && Tuple.equal arr.(i) t

let to_list r =
  match r.rows with
  | Tree set -> Tuple_set.elements set
  | Run { arr; _ } -> Array.to_list arr

let fold f r acc =
  match r.rows with
  | Tree set -> Tuple_set.fold f set acc
  | Run { arr; _ } -> Array.fold_left (fun acc t -> f t acc) acc arr

let iter f r =
  match r.rows with
  | Tree set -> Tuple_set.iter f set
  | Run { arr; _ } -> Array.iter f arr

let exists p r =
  match r.rows with
  | Tree set -> Tuple_set.exists p set
  | Run { arr; _ } -> Array.exists p arr

let for_all p r =
  match r.rows with
  | Tree set -> Tuple_set.for_all p set
  | Run { arr; _ } -> Array.for_all p arr

(* The least tuple, as [Tuple_set.choose_opt] picks it *)
let choose_opt r =
  match r.rows with
  | Tree set -> Tuple_set.choose_opt set
  | Run { arr; _ } -> if Array.length arr = 0 then None else Some arr.(0)

let compare_prefix key t =
  let rec go i = function
    | [] -> 0
    | v :: rest ->
      let c = Value.compare (Tuple.get t i) v in
      if c <> 0 then c else go (i + 1) rest
  in
  go 0 key

(* The set is ordered by [Tuple.compare], which is lexicographic by
   column, so the tuples whose leading cells equal [key] form one
   contiguous run: find its first element, then walk forward while the
   prefix still matches.  This makes the relation itself the access path
   for keys on positions [0..j-1]. *)
let prefix_scan set key =
  match Tuple_set.find_first_opt (fun t -> compare_prefix key t >= 0) set with
  | None -> []
  | Some first ->
    let rec take acc rows =
      match rows () with
      | Seq.Cons (t, rest) when compare_prefix key t = 0 -> take (t :: acc) rest
      | Seq.Cons _ | Seq.Nil -> List.rev acc
    in
    take [] (Tuple_set.to_seq_from first set)

let lookup_prefix r key =
  match r.rows with
  | Tree set -> prefix_scan set key
  | Run { arr; _ } ->
    let n = Array.length arr in
    let first = first_not arr (fun t -> compare_prefix key t < 0) 0 n in
    let stop = first_not arr (fun t -> compare_prefix key t <= 0) first n in
    List.init (stop - first) (fun i -> arr.(first + i))

let check_type r t =
  if not (Tuple.well_typed r.schema t) then
    type_mismatch "tuple %a does not conform to schema %a" Tuple.pp t
      Schema.pp r.schema
  else if not (Tuple.in_domain r.schema t) then
    (* the generated §2.1 domain check:
       IF (lo <= ix) AND (ix <= hi) THEN p := ix ELSE <exception> *)
    type_mismatch "tuple %a violates a domain refinement of %a" Tuple.pp t
      Schema.pp r.schema

(* Key images currently present.  Only materialized when the key is a
   proper subset of the attributes; with whole-tuple keys the set itself
   enforces the constraint. *)
let key_of schema t = Tuple.project t (Schema.key_positions schema)

let violates_key r t =
  (not (Schema.key_is_whole_tuple r.schema))
  && (not (mem t r))
  && exists (fun u -> Tuple.equal (key_of r.schema u) (key_of r.schema t)) r

(* The key constraint over a whole relation, in one pass over its key
   images: a relation built unchecked (a constructor's value) passes
   only if no two of its tuples share one. *)
let check_key r =
  if not (Schema.key_is_whole_tuple r.schema) then
    ignore
      (fold
         (fun t seen ->
           let k = key_of r.schema t in
           if Tuple_set.mem k seen then
             key_violation "key %a already present" Tuple.pp k;
           Tuple_set.add k seen)
         r Tuple_set.empty)

(* [add] enforces both typing and the key constraint, mirroring the
   type-checker-generated conditional assignment of §2.2:
     IF ALL x1,x2 IN rex (x1.key = x2.key ==> x1 = x2)
     THEN rel := rex ELSE <exception> *)
let add t r =
  check_type r t;
  if violates_key r t then
    key_violation "key %a already present" Tuple.pp (key_of r.schema t);
  with_tree r (Tuple_set.add t (tree r))

(* [add_unchecked] is used by the fixpoint engine on derived relations whose
   schemas declare whole-tuple keys; it still asserts well-typedness. *)
let add_unchecked t r =
  assert (Tuple.well_typed r.schema t);
  with_tree r (Tuple_set.add t (tree r))

(* O(1) wrap of a tuple set built elsewhere (the Datalog fact store
   shares this set type).  Nothing is checked: the caller vouches for
   well-typedness and a whole-tuple key, as with [add_unchecked]. *)
let of_set_unchecked schema tuples = { schema; rows = Tree tuples }

let of_sorted_unchecked schema arr = { schema; rows = Run { arr; tree = None } }

let remove t r = with_tree r (Tuple_set.remove t (tree r))

let of_list schema ts = List.fold_left (fun r t -> add t r) (empty schema) ts

let of_pairs schema vs =
  of_list schema (List.map (fun (a, b) -> Tuple.make2 a b) vs)

let check_compatible op a b =
  if not (Schema.compatible a.schema b.schema) then
    type_mismatch "%s: incompatible schemas %a and %a" op Schema.pp a.schema
      Schema.pp b.schema

(* Union keeps the left schema; key constraint is re-checked only for
   keyed schemas. *)
let union a b =
  check_compatible "union" a b;
  if is_empty b then a
  else if Schema.key_is_whole_tuple a.schema then
    with_tree a (Tuple_set.union (tree a) (tree b))
  else fold add b a

let inter a b =
  check_compatible "inter" a b;
  with_tree a (Tuple_set.inter (tree a) (tree b))

let diff a b =
  check_compatible "diff" a b;
  if is_empty b then a else with_tree a (Tuple_set.diff (tree a) (tree b))

let filter p r = with_tree r (Tuple_set.filter p (tree r))

(* Re-view a relation at a positionally compatible schema (e.g. an actual
   relation passed for a formal parameter whose type uses different
   attribute names).  The rows are shared, a run as a run. *)
let with_schema schema r =
  if not (Schema.compatible schema r.schema) then
    type_mismatch "cannot view %a at schema %a" Schema.pp r.schema Schema.pp
      schema;
  { r with schema }

let equal a b =
  Schema.compatible a.schema b.schema && Tuple_set.equal (tree a) (tree b)

let subset a b =
  Schema.compatible a.schema b.schema && Tuple_set.subset (tree a) (tree b)

let same_rows a b =
  match (a.rows, b.rows) with
  | Tree s, Tree s' -> s == s'
  | Run { arr; _ }, Run { arr = arr'; _ } -> arr == arr'
  | Tree _, Run _ | Run _, Tree _ -> false

let compare_tuples a b =
  if same_rows a b then 0 else Tuple_set.compare (tree a) (tree b)

(* Hash-partition into [shards] disjoint covering relations keyed on the
   cached structural tuple hash; deterministic for a fixed shard count.
   Parallel fixpoint rounds split a delta this way before fanning out. *)
let partition_hash ~shards r =
  if shards <= 1 then [| r |]
  else begin
    let out = Array.make shards Tuple_set.empty in
    iter
      (fun t ->
        let i = Tuple.hash t mod shards in
        out.(i) <- Tuple_set.add t out.(i))
      r;
    Array.map (with_tree r) out
  end

let pp ppf r =
  let iter_tuples f rel = iter f rel in
  Fmt.pf ppf "{@[<hov>%a@]}"
    (Fmt.iter ~sep:(Fmt.any ",@ ") iter_tuples Tuple.pp)
    r

let pp_table ppf r =
  let names = Schema.attr_names r.schema in
  let widths =
    List.mapi
      (fun i name ->
        fold
          (fun t w -> max w (String.length (Value.to_string (Tuple.get t i))))
          r (String.length name))
      names
  in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let line = String.concat "-+-" (List.map (fun w -> String.make w '-') widths) in
  Fmt.pf ppf "%s@."
    (String.concat " | " (List.map2 pad names widths));
  Fmt.pf ppf "%s@." line;
  iter
    (fun t ->
      let cells =
        List.mapi (fun i w -> pad (Value.to_string (Tuple.get t i)) w) widths
      in
      Fmt.pf ppf "%s@." (String.concat " | " cells))
    r;
  Fmt.pf ppf "(%d tuple%s)" (cardinal r) (if cardinal r = 1 then "" else "s")
