(* Hash indexes on attribute positions.

   The paper's §4 runtime level materializes "physical access paths" —
   partitions of a relation by the values of selected attributes.  This
   module is that partitioning primitive; it also backs the hash joins in
   {!Algebra} and in the calculus evaluator.

   Runtime kernel: indexes are mutable and growable.  [create]/[add]/
   [extend] let the fixpoint layers keep one index per (relation,
   positions) alive across rounds and feed it only the per-round deltas,
   instead of rebuilding from scratch each round. *)

module Key = struct
  type t = Tuple.t (* the projected key image *)

  let equal = Tuple.equal
  let hash = Tuple.hash
end

module H = Hashtbl.Make (Key)

type t = {
  positions : int list;
  pos_arr : int array; (* [positions] precompiled for the projection loop *)
  table : Tuple.t list H.t;
}

let create ?(size = 64) positions =
  { positions; pos_arr = Array.of_list positions; table = H.create size }

let add idx t =
  let k = Tuple.project_arr t idx.pos_arr in
  match H.find_opt idx.table k with
  | Some prev -> H.replace idx.table k (t :: prev)
  | None -> H.add idx.table k [ t ]

let extend idx rel = Relation.iter (add idx) rel

let remove idx t =
  let k = Tuple.project_arr t idx.pos_arr in
  match H.find_opt idx.table k with
  | None -> ()
  | Some bucket ->
      (* Drop the first occurrence only: [add] stores one entry per
         insertion, so remove must undo exactly one insertion. *)
      let rec drop = function
        | [] -> []
        | x :: rest -> if Tuple.equal x t then rest else x :: drop rest
      in
      (match drop bucket with
      | [] -> H.remove idx.table k
      | bucket' -> H.replace idx.table k bucket')

let build positions rel =
  let idx = create ~size:(max 16 (Relation.cardinal rel)) positions in
  extend idx rel;
  idx

let positions idx = idx.positions

let lookup idx key = Option.value (H.find_opt idx.table key) ~default:[]

let lookup_values idx values = lookup idx (Tuple.of_list values)

let buckets idx = H.length idx.table

let iter f idx = H.iter f idx.table

