(* Atomic attribute values of the DBPL data model (paper §2.1).

   DBPL is a strongly typed language; we mirror its scalar universe with a
   dynamically tagged value type and enforce schema conformance at
   elaboration time (see {!Dc_calculus.Typecheck}) plus runtime assertions
   in {!Relation}. *)

type t =
  | Int of int
  | Str of string
  | Bool of bool
  | Float of float

type ty =
  | TInt
  | TStr
  | TBool
  | TFloat

let type_of = function
  | Int _ -> TInt
  | Str _ -> TStr
  | Bool _ -> TBool
  | Float _ -> TFloat

let type_name = function
  | TInt -> "INTEGER"
  | TStr -> "STRING"
  | TBool -> "BOOLEAN"
  | TFloat -> "REAL"

(* ------------------------------------------------------------------ *)
(* Interning (runtime kernel).

   The fixpoint hot path compares and hashes the same small population of
   strings (node names, part identifiers) millions of times.  The intern
   pool hash-conses them: [str]/[intern] return a canonical, physically
   unique string per content.  Comparison fast paths then decide
   equality of interned values by pointer identity alone.

   Interning is optional — [Str] built directly from a raw string is still
   a legal value and all operations remain correct on it; it merely misses
   the fast paths. *)

let intern_pool : (string, string) Hashtbl.t = Hashtbl.create 4096

(* The pool is process-global mutable state; interning happens at parse
   and load time, but worker domains may still construct [Str] values
   (e.g. string concatenation in a parallel round), so pool access is
   serialized.  Uncontended mutex acquisition is a few nanoseconds —
   invisible next to the Hashtbl probe it guards. *)
let intern_mutex = Mutex.create ()

let intern_string s =
  Mutex.lock intern_mutex;
  let c =
    match Hashtbl.find_opt intern_pool s with
    | Some canonical -> canonical
    | None ->
      Hashtbl.add intern_pool s s;
      s
  in
  Mutex.unlock intern_mutex;
  c

let interned_count () =
  Mutex.lock intern_mutex;
  let n = Hashtbl.length intern_pool in
  Mutex.unlock intern_mutex;
  n

let str s = Str (intern_string s)

let intern = function
  | Str s as v ->
    let c = intern_string s in
    if c == s then v else Str c
  | v -> v

let compare a b =
  if a == b then 0
  else
    match a, b with
    | Int x, Int y -> Int.compare x y
    | Str x, Str y -> if x == y then 0 else String.compare x y
    | Bool x, Bool y -> Bool.compare x y
    | Float x, Float y -> Float.compare x y
    | Int _, (Str _ | Bool _ | Float _) -> -1
    | (Str _ | Bool _ | Float _), Int _ -> 1
    | Str _, (Bool _ | Float _) -> -1
    | (Bool _ | Float _), Str _ -> 1
    | Bool _, Float _ -> -1
    | Float _, Bool _ -> 1

let equal a b =
  a == b
  ||
  match a, b with
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> x == y || String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Float x, Float y -> Float.compare x y = 0
  | _ -> false

(* Allocation-free: tuples hash every cell at construction, so this runs
   on the hottest path of the engine.  Values of different types may
   collide; [equal] disambiguates. *)
let hash = function
  | Int x -> Hashtbl.hash x
  | Str s -> Hashtbl.hash s
  | Bool b -> Bool.to_int b + 0x2cf5
  | Float f -> Hashtbl.hash f

let pp ppf = function
  | Int x -> Fmt.int ppf x
  | Str s -> Fmt.pf ppf "%S" s
  | Bool b -> Fmt.bool ppf b
  | Float f -> Fmt.float ppf f

let to_string v = Fmt.str "%a" pp v

let pp_ty ppf ty = Fmt.string ppf (type_name ty)

(* Arithmetic on values, used by computed terms in target lists
   (e.g. quantity multiplication in bill-of-materials rules). *)

exception Type_error of string

let type_error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

let add a b =
  match a, b with
  | Int x, Int y -> Int (x + y)
  | Float x, Float y -> Float (x +. y)
  | Str x, Str y -> Str (x ^ y)
  | _ ->
    type_error "cannot add %s and %s"
      (type_name (type_of a)) (type_name (type_of b))

let sub a b =
  match a, b with
  | Int x, Int y -> Int (x - y)
  | Float x, Float y -> Float (x -. y)
  | _ ->
    type_error "cannot subtract %s from %s"
      (type_name (type_of b)) (type_name (type_of a))

let mul a b =
  match a, b with
  | Int x, Int y -> Int (x * y)
  | Float x, Float y -> Float (x *. y)
  | _ ->
    type_error "cannot multiply %s and %s"
      (type_name (type_of a)) (type_name (type_of b))
