(* Relations: finite, typed sets of tuples with the §2.2 key constraint.

   The legal values of a relation variable are tuple sets in which the key
   attributes identify elements uniquely:

     ALL r1,r2 IN rel (r1.key = r2.key ==> r1 = r2)

   Relations are persistent.  Their rows take one of two physical shapes,
   chosen by how the relation was built, below the logical level (§4):

   - a balanced-tree set, which the fixpoint engine and every update rely
     on for cheap snapshots of iteration states;
   - a run: a dictionary of the values its rows use, strictly increasing
     by [Value.compare], and one array of dictionary ranks per column,
     the rows strictly increasing.  A result emitted in order as ranks (a
     closure traversal over its numbered nodes) is wrapped as one in
     O(1), with no tuple per row.

   Because the dictionary is ordered, comparing two rows' ranks column by
   column orders them as [Tuple.compare] orders their tuples.  Reads
   (cardinality, iteration, folds, membership and prefix scans) work on a
   run in place: a key's values are located in the dictionary by binary
   search, then its rows by binary search over the ranks.  Any other set
   operation derives the tree from the run once, in linear time, and
   keeps it in the run. *)

module Tuple_set = Set.Make (Tuple)

(* The tree derived from the ranks is written to [tree] unsynchronised:
   pool domains may read one relation at once, and a lost race costs a
   duplicate build of an equal tree, never an exception. *)
type run = {
  nodes : Value.t array;  (* strictly increasing *)
  ranks : int array array;  (* per column; row [i]'s cell [c] is [nodes.(ranks.(c).(i))] *)
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

let run_length run = Array.length run.ranks.(0)

(* Row [i] of a run, as a tuple *)
let row run i =
  let nodes = run.nodes in
  match run.ranks with
  | [| a; b |] -> Tuple.make2 nodes.(a.(i)) nodes.(b.(i))
  | ranks -> Tuple.init (Array.length ranks) (fun c -> nodes.(ranks.(c).(i)))

let tree r =
  match r.rows with
  | Tree set -> set
  | Run { tree = Some set; _ } -> set
  | Run run ->
    let set = sorted_set (Array.init (run_length run) (row run)) in
    run.tree <- Some set;
    set

let with_tree r set = { r with rows = Tree set }

let cardinal r =
  match r.rows with
  | Tree set -> Tuple_set.cardinal set
  | Run run -> run_length run

let is_empty r =
  match r.rows with
  | Tree set -> Tuple_set.is_empty set
  | Run run -> run_length run = 0

(* The first index in [lo, hi) at which [below] turns false; [below] is
   monotone over the range, true then false. *)
let rec first_not below lo hi =
  if lo >= hi then lo
  else
    let mid = lo + ((hi - lo) / 2) in
    if below mid then first_not below (mid + 1) hi else first_not below lo mid

(* The ranks of [key]'s values in the dictionary, or [None] if one of
   them is not there (no row can then have it); [key] is no longer than
   the rows. *)
let key_ranks nodes key =
  let n = Array.length nodes in
  let rank v =
    let i = first_not (fun k -> Value.compare nodes.(k) v < 0) 0 n in
    if i < n && Value.compare nodes.(i) v = 0 then i else -1
  in
  let ranks = Array.of_list (List.map rank key) in
  if Array.exists (fun r -> r < 0) ranks then None else Some ranks

(* Row [i]'s leading ranks against [key], lexicographically *)
let compare_ranks ranks i key =
  let rec go c =
    if c = Array.length key then 0
    else
      let d = Int.compare ranks.(c).(i) key.(c) in
      if d <> 0 then d else go (c + 1)
  in
  go 0

(* The rows [first, stop) of a run whose leading cells are [key]: two
   binary searches over the ranks, once the key's ranks are found. *)
let run_range run key =
  let n = run_length run in
  if List.length key > Array.length run.ranks then (0, 0)
  else
    match key_ranks run.nodes key with
    | None -> (0, 0)
    | Some key ->
      let first = first_not (fun i -> compare_ranks run.ranks i key < 0) 0 n in
      (first, first_not (fun i -> compare_ranks run.ranks i key <= 0) first n)

let mem t r =
  match r.rows with
  | Tree set -> Tuple_set.mem t set
  | Run run ->
    Tuple.arity t = Array.length run.ranks
    &&
    let first, stop = run_range run (Tuple.to_list t) in
    stop > first

let to_list r =
  match r.rows with
  | Tree set -> Tuple_set.elements set
  | Run run -> List.init (run_length run) (row run)

let fold f r acc =
  match r.rows with
  | Tree set -> Tuple_set.fold f set acc
  | Run run ->
    let acc = ref acc in
    for i = 0 to run_length run - 1 do
      acc := f (row run i) !acc
    done;
    !acc

let iter f r =
  match r.rows with
  | Tree set -> Tuple_set.iter f set
  | Run run ->
    for i = 0 to run_length run - 1 do
      f (row run i)
    done

let exists p r =
  match r.rows with
  | Tree set -> Tuple_set.exists p set
  | Run run ->
    let n = run_length run in
    let rec from i = i < n && (p (row run i) || from (i + 1)) in
    from 0

let for_all p r = not (exists (fun t -> not (p t)) r)

(* The least tuple, as [Tuple_set.choose_opt] picks it *)
let choose_opt r =
  match r.rows with
  | Tree set -> Tuple_set.choose_opt set
  | Run run -> if run_length run = 0 then None else Some (row run 0)

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
  | Run run ->
    let first, stop = run_range run key in
    List.init (stop - first) (fun i -> row run (first + i))

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

let of_ranks_unchecked schema nodes ranks =
  let columns = Array.length ranks in
  if
    columns = 0
    || columns <> Schema.arity schema
    || Array.exists (fun c -> Array.length c <> Array.length ranks.(0)) ranks
  then invalid_arg "Relation.of_ranks_unchecked: one rank array per column, of one length";
  { schema; rows = Run { nodes; ranks; tree = None } }

let run_ranks r =
  match r.rows with
  | Run run -> Some (run.nodes, run.ranks)
  | Tree _ -> None

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
  | Run run, Run run' -> run.ranks == run'.ranks
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
