(* A mutable open-addressing set of tuples: the in-round dedup set of the
   fixpoint loops and the seen-set of the IR's [Distinct].

   Linear probing over a power-of-two slot array, kept at most half
   full.  Slots hold tuples directly and probe on the tuple's cached
   hash, so a membership test costs one cached-int read plus
   [Tuple.equal] on the (rare) colliding slots; growing re-probes on the
   same cached hashes and never rehashes cells.

   Ownership: a set is private to one evaluation (or one pool worker of
   it).  It is never shared between domains, and [clear] keeps the slot
   array so a fixpoint reuses one allocation across all of its rounds. *)

type t = {
  mutable slots : Tuple.t array;
  mutable count : int;
}

(* An empty slot holds this private physical value, compared with [==]:
   no tuple built anywhere else is ever mistaken for it, the arity-0
   tuple included. *)
let empty_slot = Tuple.of_list []

let create () = { slots = Array.make 16 empty_slot; count = 0 }

(* First slot holding [t] or empty, starting at [t]'s home slot. *)
let find_slot slots t =
  let mask = Array.length slots - 1 in
  let rec probe i =
    let u = Array.unsafe_get slots i in
    if u == empty_slot || Tuple.equal u t then i else probe ((i + 1) land mask)
  in
  probe (Tuple.hash t land mask)

let grow s =
  let old = s.slots in
  let slots = Array.make (2 * Array.length old) empty_slot in
  Array.iter
    (fun t -> if t != empty_slot then slots.(find_slot slots t) <- t)
    old;
  s.slots <- slots

let add s t =
  let i = find_slot s.slots t in
  if Array.unsafe_get s.slots i != empty_slot then false
  else begin
    Array.unsafe_set s.slots i t;
    s.count <- s.count + 1;
    if 2 * s.count > Array.length s.slots then grow s;
    true
  end

let clear s =
  if s.count > 0 then begin
    Array.fill s.slots 0 (Array.length s.slots) empty_slot;
    s.count <- 0
  end
