(* Derivation-count bookkeeping for incrementally maintained extents.

   Per derived tuple, the number of one-step rule instances that
   currently derive it.  For non-recursive predicates (the counting
   algorithm) a base-relation update translates into count adjustments:
   a tuple leaves the extent exactly when its count drops to zero, and
   enters it when the count rises from zero — no rederivation search
   needed.  Recursive components keep the same counts, but there a count
   never decides deletion: a cycle can keep a tuple's count positive
   through derivations that themselves depend on the deleted tuple, so
   DRed's over-deletion decides what leaves, and the count only replaces
   the rederive search — an over-deleted tuple whose count survived the
   over-deletion has a derivation from the surviving facts.

   One [t] holds the tables of every counted predicate of one maintained
   view, keyed by predicate name.  Counts are plain mutable state; the
   enclosing maintenance step is made atomic by an undo log: between
   [begin_undo] and [commit]/[rollback], every mutation records what it
   overwrote, so both ends cost as much as the update touched, not as
   much as the tables hold. *)

module HT = Hashtbl.Make (Tuple)

type tables = (string, int HT.t) Hashtbl.t

(* What one mutation overwrote. *)
type undo =
  | Count of int HT.t * Tuple.t * int (* the tuple's count before; 0: absent *)
  | Table of string * int HT.t option (* the predicate's table before *)
  | Tables of tables (* every table, before a [reset] *)

type t = {
  mutable tables : tables;
  mutable log : undo list; (* newest first *)
  mutable logging : bool;
}

let create () = { tables = Hashtbl.create 8; log = []; logging = false }

let record s u = if s.logging then s.log <- u :: s.log

let table (s : t) pred =
  match Hashtbl.find_opt s.tables pred with
  | Some tbl -> tbl
  | None ->
    let tbl = HT.create 64 in
    record s (Table (pred, None));
    Hashtbl.replace s.tables pred tbl;
    tbl

let count (s : t) pred tuple =
  match Hashtbl.find_opt s.tables pred with
  | None -> 0
  | Some tbl -> Option.value (HT.find_opt tbl tuple) ~default:0

let write tbl tuple n =
  if n = 0 then HT.remove tbl tuple else HT.replace tbl tuple n

(* Adjust and return the (old, new) pair — the commit loop classifies
   tuples by the zero-crossing direction. *)
let add (s : t) pred tuple d =
  let tbl = table s pred in
  let old = Option.value (HT.find_opt tbl tuple) ~default:0 in
  let now = old + d in
  record s (Count (tbl, tuple, old));
  write tbl tuple now;
  (old, now)

(* [HT.replace] rewrites the binding's key along with its count *)
let share (s : t) pred tuples =
  match Hashtbl.find_opt s.tables pred with
  | None -> ()
  | Some tbl ->
    Relation.Tuple_set.iter
      (fun t -> Option.iter (HT.replace tbl t) (HT.find_opt tbl t))
      tuples

(* A count pass: [pred]'s counts become the ones [f] adds through its
   argument, in a fresh table; the undo log records the one table swap,
   not every count. *)
let build (s : t) pred ~size f =
  let tbl = HT.create (max 16 size) in
  f (fun t ->
      match HT.find_opt tbl t with
      | None -> HT.add tbl t 1
      | Some n -> HT.replace tbl t (n + 1));
  record s (Table (pred, Hashtbl.find_opt s.tables pred));
  Hashtbl.replace s.tables pred tbl

let set (s : t) pred tuple n =
  ignore (add s pred tuple (n - count s pred tuple))

let reset (s : t) =
  record s (Tables s.tables);
  s.tables <- Hashtbl.create 8

let iter_pred (s : t) pred f =
  match Hashtbl.find_opt s.tables pred with
  | None -> ()
  | Some tbl -> HT.iter f tbl

let total (s : t) =
  Hashtbl.fold (fun _ tbl acc -> acc + HT.length tbl) s.tables 0

let begin_undo s =
  s.log <- [];
  s.logging <- true

let commit s =
  s.log <- [];
  s.logging <- false

(* Newest first, so each entry restores the state its mutation saw. *)
let rollback s =
  List.iter
    (function
      | Count (tbl, tuple, old) -> write tbl tuple old
      | Table (pred, Some tbl) -> Hashtbl.replace s.tables pred tbl
      | Table (pred, None) -> Hashtbl.remove s.tables pred
      | Tables tables -> s.tables <- tables)
    s.log;
  commit s

(* Deterministic full dump — the checkpoint writer's view of the counts.
   Sorted by predicate name, tuples by [Tuple.compare], so equal states
   serialize identically. *)
let dump ?(keep = fun _ -> true) (s : t) =
  Hashtbl.fold
    (fun pred tbl acc ->
      if not (keep pred) then acc
      else
        let rows = HT.fold (fun t n acc -> (t, n) :: acc) tbl [] in
        (pred, List.sort (fun (a, _) (b, _) -> Tuple.compare a b) rows) :: acc)
    s.tables []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp ppf (s : t) =
  Hashtbl.iter
    (fun pred tbl ->
      HT.iter (fun t n -> Fmt.pf ppf "%s%a = %d@." pred Tuple.pp t n) tbl)
    s.tables
