(* A physical extent: the runtime face of one stored or computed relation
   as the operator IR sees it — iteration, keyed lookup through an access
   path, membership, and an (optional) cardinality estimate.

   Everything is a closure record so the executor is agnostic about where
   tuples live: [Dc_relation.Relation] values, the Datalog fact store's
   per-predicate tuple sets, or a tabled engine's growing answer tables
   all wrap into the same shape.  Keyed lookups go through whatever access
   path the producer has: a relation answers keys on its leading columns
   from its own ordered set and the rest from {!Dc_relation.Index_cache};
   the fact store uses its own per-(predicate, positions) cache, so the
   delta-incremental index maintenance of the runtime kernel keeps paying
   off underneath the shared executor. *)

open Dc_relation

type t = {
  label : string;  (* for EXPLAIN *)
  cardinal : unit -> int option;  (* None: unknown without work *)
  iter : (Tuple.t -> unit) -> unit;
  lookup : int list -> Value.t list -> Tuple.t list;
      (* tuples whose projection on the positions equals the key *)
  mem : Tuple.t -> bool;
}

let rec from i = function [] -> true | p :: ps -> p = i && from (i + 1) ps

(* When [positions] are [0..j-1] in some order, the key values reordered
   to column order; [None] for any other position set.  A position at or
   past [j] rules a permutation out before anything is allocated, which
   keeps the common single non-leading key (a probe on [1]) as cheap as
   the hash lookup it falls back to. *)
let prefix_key positions values =
  if from 0 positions then Some values
  else
    let n = List.length positions in
    if List.exists (fun p -> p >= n) positions then None
    else
      let sorted =
        List.sort
          (fun (p, _) (q, _) -> Int.compare p q)
          (List.combine positions values)
      in
      if from 0 (List.map fst sorted) then Some (List.map snd sorted)
      else None

(* Wrap a relation.  A key on the leading columns is a range scan of the
   relation's ordered set; any other key probes a hash index from [cache],
   the per-evaluation index cache whose indexes stay warm across fixpoint
   rounds (without one, a private cache still amortizes index builds
   within this extent). *)
let of_relation ?label ?cache rel =
  let cache =
    match cache with
    | Some c -> c
    | None -> Index_cache.create ()
  in
  {
    label =
      (match label with
      | Some l -> l
      | None -> String.concat "," (Schema.attr_names (Relation.schema rel)));
    cardinal = (fun () -> Some (Relation.cardinal rel));
    iter = (fun f -> Relation.iter f rel);
    lookup =
      (fun positions values ->
        match prefix_key positions values with
        | Some key -> Relation.lookup_prefix rel key
        | None -> Index.lookup_values (Index_cache.get cache positions rel) values);
    mem = (fun t -> Relation.mem t rel);
  }

let empty ~label =
  {
    label;
    cardinal = (fun () -> Some 0);
    iter = (fun _ -> ());
    lookup = (fun _ _ -> []);
    mem = (fun _ -> false);
  }
