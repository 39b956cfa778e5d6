(* Tuples are immutable value arrays; the element type of a relation.

   Tuples carry no schema of their own: schema conformance is checked when
   a tuple enters a relation, mirroring DBPL's record values flowing into
   typed relation variables.

   Runtime kernel: a tuple caches its structural hash in the record so
   [Tuple_set] balancing, [Hashtbl.Make] instances, and index lookups stop
   re-walking the cell array.  The cache fills lazily on first use — most
   derived tuples only ever flow through ordered sets (pure comparisons),
   and hashing their cells eagerly at construction measurably slows the
   fixpoint emit path. *)

type t = {
  cells : Value.t array;
  mutable h : int; (* cached hash; negative = not yet computed *)
}

let hash_seed = 17

let hash_cells cells =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) hash_seed cells

(* [make] takes ownership of [cells]: every caller below passes a freshly
   allocated array that is never mutated afterwards. *)
let make cells = { cells; h = -1 }

let hash t =
  let h = t.h in
  if h >= 0 then h
  else begin
    let h = hash_cells t.cells land max_int in
    t.h <- h;
    h
  end

let empty = make [||]

let arity t = Array.length t.cells

let of_list l = make (Array.of_list l)

let init n f = make (Array.init n f)

let to_list t = Array.to_list t.cells

let get t i = t.cells.(i)

let iter f t = Array.iter f t.cells

let make1 v = make [| v |]

let make2 a b = make [| a; b |]

let make3 a b c = make [| a; b; c |]

(* The element loops are top-level functions, not local closures over
   the cell arrays: [compare] runs on every [Tuple_set] operation and
   [equal] on every hash probe, and a closure would allocate per call. *)
let rec compare_from xa xb la i =
  if i >= la then 0
  else
    let c = Value.compare (Array.unsafe_get xa i) (Array.unsafe_get xb i) in
    if c <> 0 then c else compare_from xa xb la (i + 1)

let compare a b =
  if a == b then 0
  else
    let xa = a.cells and xb = b.cells in
    let la = Array.length xa in
    let c = Int.compare la (Array.length xb) in
    if c <> 0 then c else compare_from xa xb la 0

let rec equal_from xa xb la i =
  i >= la
  || Value.equal (Array.unsafe_get xa i) (Array.unsafe_get xb i)
     && equal_from xa xb la (i + 1)

let equal a b =
  a == b
  || (a.h < 0 || b.h < 0 || a.h = b.h)
     &&
     let xa = a.cells and xb = b.cells in
     let la = Array.length xa in
     la = Array.length xb && equal_from xa xb la 0

let project t positions =
  match positions with
  | [] -> empty
  | _ ->
    let n = List.length positions in
    let src = t.cells in
    let cells = Array.make n src.(List.hd positions) in
    List.iteri (fun i p -> Array.unsafe_set cells i src.(p)) positions;
    make cells

let project_arr t positions =
  let n = Array.length positions in
  if n = 0 then empty
  else begin
    let src = t.cells in
    let cells = Array.make n src.(Array.unsafe_get positions 0) in
    for i = 1 to n - 1 do
      Array.unsafe_set cells i src.(Array.unsafe_get positions i)
    done;
    make cells
  end

let rec typed_from cells tys i =
  i >= Array.length tys
  || Value.type_of (Array.unsafe_get cells i) = Array.unsafe_get tys i
     && typed_from cells tys (i + 1)

let well_typed schema t =
  let tys = Schema.attr_types_array schema in
  Array.length t.cells = Array.length tys && typed_from t.cells tys 0

(* Typing plus the §2.1 domain refinements — the full generated check. *)
let in_domain schema t =
  well_typed schema t
  &&
  let cells = t.cells in
  let rec loop i =
    i >= Array.length cells
    || (Schema.satisfies_refinement
          (Schema.attr_refinement schema i)
          (Array.unsafe_get cells i)
       && loop (i + 1))
  in
  loop 0

let concat a b = make (Array.append a.cells b.cells)

let pp ppf t =
  Fmt.pf ppf "<%a>" Fmt.(array ~sep:(any ", ") Value.pp) t.cells

let to_string t = Fmt.str "%a" pp t
