(* Regular path queries by graph traversal: the physical method behind a
   constructor system the planner's recogniser proves regular (paper §4
   leaves the evaluation method to the compile level; §3.4 keeps the
   closure itself out of the language).

   The endpoints of every label's edges are ranked once by
   [Value.compare] and each label laid out as a compressed adjacency
   over the ranks.  The automaton is turned into transitions for the
   direction of the traversal: each state lists, per label, the states a
   step along one of the label's edges enters and whether the node it
   reaches is an answer.  Each source is then traversed breadth first in
   product with the automaton, its visits stamped with the source's rank
   in one array per product state and its answers in one array per node,
   so no per-source clearing is needed; the answers come out in rank
   order.  Sources go in rank order too, so the pairs come out in the
   relation's own [Tuple.compare] order and the caller can build the
   result without sorting.  The closure of one relation is the one-state
   automaton. *)

open Dc_relation

type seed = Every | From of Value.t | To of Value.t

let pp_seed ppf = function
  | Every -> Fmt.string ppf "every source"
  | From v -> Fmt.pf ppf "from %a" Value.pp v
  | To v -> Fmt.pf ppf "to %a" Value.pp v

type automaton = {
  linear : [ `Right | `Left ];
  exits : int list array;
  steps : (int * int) list array;
  root : int;
}

let closure = { linear = `Right; exits = [| [ 0 ] |]; steps = [| [ (0, 0) ] |]; root = 0 }

(* The rank of [v] among the sorted distinct [nodes]. *)
let rank nodes v =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = Value.compare nodes.(mid) v in
      if c = 0 then Some mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length nodes)

(* The distinct endpoints of every label in [Value.compare] order, and
   each label's edges as two arrays of endpoint ranks. *)
let ranked labels =
  let pairs =
    Array.map
      (fun edges ->
        let acc = ref [] in
        edges (fun t -> acc := t :: !acc);
        Array.of_list !acc)
      labels
  in
  let m = Array.fold_left (fun m p -> m + Array.length p) 0 pairs in
  let all = Array.make (2 * m) (Value.Int 0) in
  let k = ref 0 in
  Array.iter
    (Array.iter (fun t ->
         all.(!k) <- Tuple.get t 0;
         all.(!k + 1) <- Tuple.get t 1;
         k := !k + 2))
    pairs;
  Array.sort Value.compare all;
  let distinct = ref 0 in
  Array.iteri
    (fun i v ->
      if i = 0 || Value.compare all.(!distinct - 1) v <> 0 then begin
        all.(!distinct) <- v;
        incr distinct
      end)
    all;
  let nodes = Array.sub all 0 !distinct in
  let rank_of i t = Option.get (rank nodes (Tuple.get t i)) in
  (nodes, Array.map (fun p -> (Array.map (rank_of 0) p, Array.map (rank_of 1) p)) pairs)

(* Compressed adjacency: the successors of [u] are
   [adj.(start.(u)) .. adj.(start.(u + 1) - 1)]. *)
let adjacency n from to_ =
  let start = Array.make (n + 1) 0 in
  Array.iter (fun u -> start.(u + 1) <- start.(u + 1) + 1) from;
  for u = 0 to n - 1 do
    start.(u + 1) <- start.(u + 1) + start.(u)
  done;
  let fill = Array.sub start 0 n in
  let adj = Array.make (Array.length from) 0 in
  Array.iteri
    (fun i u ->
      adj.(fill.(u)) <- to_.(i);
      fill.(u) <- fill.(u) + 1)
    from;
  (start, adj)

(* The moves of a traversal in the direction of its seed, as (state,
   label, state entered, answer) quadruples, with its start state and
   number of states.  A right-linear system read forwards (or a
   left-linear one read backwards, over reversed edges) starts in the
   root: a step [(l, q')] of [q] moves along [l] into [q'], an exit
   along its label to an answer.  A left-linear system read forwards
   (or a right-linear one backwards) starts in an extra state [k] that
   moves along each state's exits into that state; a step [(l, q')] of
   [q] moves from [q'] along [l] into [q]; entering the root is an
   answer. *)
let moves a ~reversed =
  let k = Array.length a.exits in
  let forward = (a.linear = `Right) <> reversed in
  let per_state q =
    if forward then
      List.map (fun l -> (q, l, None, true)) a.exits.(q)
      @ List.map (fun (l, q') -> (q, l, Some q', false)) a.steps.(q)
    else
      List.map (fun l -> (k, l, Some q, q = a.root)) a.exits.(q)
      @ List.map (fun (l, q') -> (q', l, Some q, q = a.root)) a.steps.(q)
  in
  ( (if forward then a.root else k),
    (if forward then k else k + 1),
    List.concat_map per_state (List.init k Fun.id) )

(* A state's moves along one label, laid out for the inner loop. *)
type move = { start : int array; adj : int array; into : int array; emits : bool }

let iter labels a seed emit =
  let nodes, edges = ranked labels in
  let n = Array.length nodes in
  let reversed = match seed with To _ -> true | Every | From _ -> false in
  let first, states, moves = moves a ~reversed in
  let graphs =
    Array.map
      (fun (src, dst) -> lazy (if reversed then adjacency n dst src else adjacency n src dst))
      edges
  in
  (* each state's moves grouped by label: one pass over a label's edges
     serves every state it enters and the answer *)
  let layout =
    Array.init states (fun q ->
        let mine = List.filter (fun (q', _, _, _) -> q' = q) moves in
        List.sort_uniq compare (List.map (fun (_, l, _, _) -> l) mine)
        |> List.map (fun l ->
               let along = List.filter (fun (_, l', _, _) -> l' = l) mine in
               let start, adj = Lazy.force graphs.(l) in
               {
                 start;
                 adj;
                 into =
                   Array.of_list
                     (List.sort_uniq compare (List.filter_map (fun (_, _, q', _) -> q') along));
                 emits = List.exists (fun (_, _, _, answer) -> answer) along;
               })
        |> Array.of_list)
  in
  (* one visit stamp per product state, one answer stamp per node: a
     visit or an answer stamps the source's rank, so every source of one
     traversal must differ *)
  let mark = Array.init states (fun _ -> Array.make n (-1)) in
  let answered = Array.make n (-1) and reached = Array.make n 0 in
  let queue_node = Array.make (n * states) 0 and queue_state = Array.make (n * states) 0 in
  (* The answers from [s], in rank order, in [reached.(0 .. count - 1)];
     returns [count]. *)
  let reach s =
    let count = ref 0 and tail = ref 0 in
    let expand u q =
      let moves = layout.(q) in
      for j = 0 to Array.length moves - 1 do
        let mv = moves.(j) in
        for i = mv.start.(u) to mv.start.(u + 1) - 1 do
          let v = mv.adj.(i) in
          if mv.emits && answered.(v) <> s then begin
            answered.(v) <- s;
            reached.(!count) <- v;
            incr count
          end;
          for x = 0 to Array.length mv.into - 1 do
            let q' = mv.into.(x) in
            let m = mark.(q') in
            if m.(v) <> s then begin
              m.(v) <- s;
              queue_node.(!tail) <- v;
              queue_state.(!tail) <- q';
              incr tail
            end
          done
        done
      done
    in
    expand s first;
    let next = ref 0 in
    while !next < !tail do
      expand queue_node.(!next) queue_state.(!next);
      incr next
    done;
    (* Rank order: a scan of all [n] stamps, or a sort of the [count]
       answers, whose comparisons cost more than stamp reads, so the
       sort pays only when few nodes are reached.  Every pair on a 2-core
       Xeon (best of 15): the 300-node, 900-edge strongly connected
       digraph takes 4.6 ms, 21 ms sorting only; a random 3000-node tree,
       10 ms, 22 ms scanning only.  Factors 8 to 64 measured within noise
       of one another; 2 and 4 lose on a 256-chain. *)
    let count = !count in
    if count * 8 >= n then begin
      (* dense: one pass over the stamps *)
      let k = ref 0 in
      for u = 0 to n - 1 do
        if answered.(u) = s then begin
          reached.(!k) <- u;
          incr k
        end
      done
    end
    else begin
      let part = Array.sub reached 0 count in
      Array.sort Int.compare part;
      Array.blit part 0 reached 0 count
    end;
    count
  in
  let traverse s k =
    for i = 0 to reach s - 1 do
      k reached.(i)
    done
  in
  match seed with
  | Every ->
    for s = 0 to n - 1 do
      traverse s (fun t -> emit nodes.(s) nodes.(t))
    done;
    n
  | From v -> (
    match rank nodes v with
    | None -> 0
    | Some s ->
      traverse s (fun t -> emit nodes.(s) nodes.(t));
      1)
  | To v -> (
    match rank nodes v with
    | None -> 0
    | Some t ->
      traverse t (fun s -> emit nodes.(s) nodes.(t));
      1)
