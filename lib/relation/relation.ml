(* Relations: finite, typed sets of tuples with the §2.2 key constraint.

   The legal values of a relation variable are tuple sets in which the key
   attributes identify elements uniquely:

     ALL r1,r2 IN rel (r1.key = r2.key ==> r1 = r2)

   Relations are persistent (balanced-tree sets), which the fixpoint engine
   relies on for cheap snapshots of iteration states. *)

module Tuple_set = Set.Make (Tuple)

type t = {
  schema : Schema.t;
  tuples : Tuple_set.t;
}

exception Key_violation of string
exception Type_mismatch of string

let key_violation fmt = Fmt.kstr (fun s -> raise (Key_violation s)) fmt
let type_mismatch fmt = Fmt.kstr (fun s -> raise (Type_mismatch s)) fmt

let schema r = r.schema

let empty schema = { schema; tuples = Tuple_set.empty }

let cardinal r = Tuple_set.cardinal r.tuples

let is_empty r = Tuple_set.is_empty r.tuples

let mem t r = Tuple_set.mem t r.tuples

let to_list r = Tuple_set.elements r.tuples

let to_seq r = Tuple_set.to_seq r.tuples

let fold f r acc = Tuple_set.fold f r.tuples acc

let iter f r = Tuple_set.iter f r.tuples

let exists p r = Tuple_set.exists p r.tuples

let for_all p r = Tuple_set.for_all p r.tuples

let choose_opt r = Tuple_set.choose_opt r.tuples

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

let lookup_prefix r key = prefix_scan r.tuples key

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
      (Tuple_set.fold
         (fun t seen ->
           let k = key_of r.schema t in
           if Tuple_set.mem k seen then
             key_violation "key %a already present" Tuple.pp k;
           Tuple_set.add k seen)
         r.tuples Tuple_set.empty)

(* [add] enforces both typing and the key constraint, mirroring the
   type-checker-generated conditional assignment of §2.2:
     IF ALL x1,x2 IN rex (x1.key = x2.key ==> x1 = x2)
     THEN rel := rex ELSE <exception> *)
let add t r =
  check_type r t;
  if violates_key r t then
    key_violation "key %a already present" Tuple.pp (key_of r.schema t);
  { r with tuples = Tuple_set.add t r.tuples }

(* [add_unchecked] is used by the fixpoint engine on derived relations whose
   schemas declare whole-tuple keys; it still asserts well-typedness. *)
let add_unchecked t r =
  assert (Tuple.well_typed r.schema t);
  { r with tuples = Tuple_set.add t r.tuples }

(* O(1) wrap of a tuple set built elsewhere (the Datalog fact store
   shares this set type).  Nothing is checked: the caller vouches for
   well-typedness and a whole-tuple key, as with [add_unchecked]. *)
let of_set_unchecked schema tuples = { schema; tuples }

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

let of_sorted_unchecked schema tuples = { schema; tuples = sorted_set tuples }

let remove t r = { r with tuples = Tuple_set.remove t r.tuples }

let of_list schema ts = List.fold_left (fun r t -> add t r) (empty schema) ts

let of_pairs schema vs =
  of_list schema (List.map (fun (a, b) -> Tuple.make2 a b) vs)

let singleton schema t = add t (empty schema)

let check_compatible op a b =
  if not (Schema.compatible a.schema b.schema) then
    type_mismatch "%s: incompatible schemas %a and %a" op Schema.pp a.schema
      Schema.pp b.schema

(* Union keeps the left schema; key constraint is re-checked only for
   keyed schemas. *)
let union a b =
  check_compatible "union" a b;
  if Tuple_set.is_empty b.tuples then a
  else if Schema.key_is_whole_tuple a.schema then
    { a with tuples = Tuple_set.union a.tuples b.tuples }
  else Tuple_set.fold add b.tuples a

let inter a b =
  check_compatible "inter" a b;
  { a with tuples = Tuple_set.inter a.tuples b.tuples }

let diff a b =
  check_compatible "diff" a b;
  if Tuple_set.is_empty b.tuples then a
  else { a with tuples = Tuple_set.diff a.tuples b.tuples }

let filter p r = { r with tuples = Tuple_set.filter p r.tuples }

(* Re-view a relation at a positionally compatible schema (e.g. an actual
   relation passed for a formal parameter whose type uses different
   attribute names).  The tuple set is shared. *)
let with_schema schema r =
  if not (Schema.compatible schema r.schema) then
    type_mismatch "cannot view %a at schema %a" Schema.pp r.schema Schema.pp
      schema;
  { r with schema }

let equal a b =
  Schema.compatible a.schema b.schema && Tuple_set.equal a.tuples b.tuples

let subset a b =
  Schema.compatible a.schema b.schema && Tuple_set.subset a.tuples b.tuples

let compare_tuples a b =
  if a.tuples == b.tuples then 0 else Tuple_set.compare a.tuples b.tuples

(* Hash-partition into [shards] disjoint covering relations keyed on the
   cached structural tuple hash; deterministic for a fixed shard count.
   Parallel fixpoint rounds split a delta this way before fanning out. *)
let partition_hash ~shards r =
  if shards <= 1 then [| r |]
  else begin
    let out = Array.make shards Tuple_set.empty in
    Tuple_set.iter
      (fun t ->
        let i = Tuple.hash t mod shards in
        out.(i) <- Tuple_set.add t out.(i))
      r.tuples;
    Array.map (fun tuples -> { r with tuples }) out
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
