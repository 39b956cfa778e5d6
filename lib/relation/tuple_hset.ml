(* A mutable open-addressing set of tuples: the in-round dedup sets of
   the fixpoint loops, the seen-set of the IR's [Distinct], and the
   novelty tables of the semi-naive engines.

   Linear probing over a power-of-two slot array, kept at most half
   full.  Slots hold tuples directly and probe on the tuple's cached
   hash, so a membership test costs one cached-int read plus
   [Tuple.equal] on the (rare) colliding slots; growing re-probes on the
   same cached hashes and never rehashes cells.

   Round stamps: beside every slot sits one byte, the set's own round
   that last [visit]ed it (0: never).  The set counts its rounds from 1
   to 255; [next_round] after 255 zeroes every stamp and starts again at
   1, so a stamp equals the current round only if it was written in this
   very round — rounds never alias, however many a fixpoint runs.

   Ownership: a set is private to one evaluation (or one pool worker of
   it).  It is never written by two domains, and [clear] keeps the slot
   array so a fixpoint reuses one allocation across all of its rounds. *)

type t = {
  mutable slots : Tuple.t array;
  mutable stamps : Bytes.t;
      (* one per slot: the round of the last visit; [insert] writes it,
         so an empty slot's stamp is never read *)
  mutable count : int;
  mutable round : int; (* current round, 1..255 *)
}

type visit =
  | Repeat
  | Known
  | Fresh

(* An empty slot holds this private physical value, compared with [==]:
   no tuple built anywhere else is ever mistaken for it, the arity-0
   tuple included. *)
let empty_slot = Tuple.of_list []

let create () =
  {
    slots = Array.make 16 empty_slot;
    stamps = Bytes.make 16 '\000';
    count = 0;
    round = 1;
  }

let count s = s.count

(* First slot holding [t] or empty, starting at slot [i].  A top-level
   loop rather than a closure over [slots] and [t], so a probe allocates
   nothing. *)
let rec probe slots mask t i =
  let u = Array.unsafe_get slots i in
  if u == empty_slot || Tuple.equal u t then i
  else probe slots mask t ((i + 1) land mask)

let find_slot slots t =
  let mask = Array.length slots - 1 in
  probe slots mask t (Tuple.hash t land mask)

let grow s =
  let old = s.slots and old_stamps = s.stamps in
  let n = 2 * Array.length old in
  let slots = Array.make n empty_slot in
  let stamps = Bytes.make n '\000' in
  Array.iteri
    (fun i t ->
      if t != empty_slot then begin
        let j = find_slot slots t in
        slots.(j) <- t;
        Bytes.unsafe_set stamps j (Bytes.unsafe_get old_stamps i)
      end)
    old;
  s.slots <- slots;
  s.stamps <- stamps

(* Fill the empty slot [i] with [t], stamped [stamp]. *)
let insert s i t stamp =
  Array.unsafe_set s.slots i t;
  Bytes.unsafe_set s.stamps i stamp;
  s.count <- s.count + 1;
  if 2 * s.count > Array.length s.slots then grow s

let add s t =
  let i = find_slot s.slots t in
  if Array.unsafe_get s.slots i != empty_slot then false
  else begin
    insert s i t '\000';
    true
  end

let mem s t = Array.unsafe_get s.slots (find_slot s.slots t) != empty_slot

let visit s t =
  let i = find_slot s.slots t in
  let stamp = Char.unsafe_chr s.round in
  if Array.unsafe_get s.slots i == empty_slot then begin
    insert s i t stamp;
    Fresh
  end
  else if Bytes.unsafe_get s.stamps i = stamp then Repeat
  else begin
    Bytes.unsafe_set s.stamps i stamp;
    Known
  end

let next_round s =
  if s.round < 255 then s.round <- s.round + 1
  else begin
    Bytes.fill s.stamps 0 (Bytes.length s.stamps) '\000';
    s.round <- 1
  end

let clear s =
  if s.count > 0 then begin
    Array.fill s.slots 0 (Array.length s.slots) empty_slot;
    s.count <- 0
  end

let release s =
  s.slots <- Array.make 16 empty_slot;
  s.stamps <- Bytes.make 16 '\000';
  s.count <- 0
