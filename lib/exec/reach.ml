(* Regular path queries by graph traversal: the physical method behind a
   constructor system the planner's recogniser proves regular (paper §4
   leaves the evaluation method to the compile level; §3.4 keeps the
   closure itself out of the language).

   The endpoints of every label's edges are numbered once through a
   hash table, only the distinct nodes sorted by [Value.compare] to rank
   them, and each label laid out as a compressed adjacency over the
   ranks.  That numbered [graph] serves both a traversal and [upstream],
   the sources a maintained view re-traverses after an update to some
   of the edges.  The automaton is turned into transitions for the
   direction of the traversal: each state lists, per label, the states a
   step along one of the label's edges enters and whether the node it
   reaches is an answer.  Each source is then traversed breadth first in
   product with the automaton, its visits stamped with the source's rank
   in one array per product state and its answers in one array per node,
   so no per-source clearing is needed; the answers come out in rank
   order.  Sources go in rank order too, so the pairs come out as
   increasing rank pairs, which over the ordered [nodes] is the
   relation's own [Tuple.compare] order: the caller keeps the ranks as
   the result's rows, with no tuple and no sort, whether it asks for
   every source or a set of them.  The closure of one relation is the
   one-state automaton. *)

open Dc_relation

type seed = Every | From of Value.t list | To of Value.t

let pp_seed ppf = function
  | Every -> Fmt.string ppf "every source"
  | From [ v ] -> Fmt.pf ppf "from %a" Value.pp v
  | From vs -> Fmt.pf ppf "from {%a}" Fmt.(list ~sep:(any ", ") Value.pp) vs
  | To v -> Fmt.pf ppf "to %a" Value.pp v

type automaton = {
  linear : [ `Right | `Left ];
  exits : int list array;
  steps : (int * int) list array;
  root : int;
}

let closure = { linear = `Right; exits = [| [ 0 ] |]; steps = [| [ (0, 0) ] |]; root = 0 }

module VH = Hashtbl.Make (Value)

type graph = {
  nodes : Value.t array;  (* the distinct endpoints, in [Value.compare] order *)
  ranks : int VH.t;  (* each endpoint's index in [nodes] *)
  edges : (int array * int array) array;  (* per label, its tails' and heads' ranks *)
}

(* Every endpoint is numbered by a hash table as it is met; only the
   distinct nodes are then sorted, and the numbers turned into ranks.
   Sorting every endpoint, then a binary search per endpoint, spends
   most of a small traversal's time in comparisons. *)
let graph labels =
  let ids = VH.create 64 and values = ref [||] in
  let number v =
    match VH.find_opt ids v with
    | Some i -> i
    | None ->
      let i = VH.length ids in
      if i = Array.length !values then begin
        let grown = Array.make (max 16 (2 * i)) v in
        Array.blit !values 0 grown 0 i;
        values := grown
      end;
      !values.(i) <- v;
      VH.add ids v i;
      i
  in
  let edges =
    Array.map
      (fun label ->
        let tails = ref [] and heads = ref [] in
        label (fun t ->
            tails := number (Tuple.get t 0) :: !tails;
            heads := number (Tuple.get t 1) :: !heads);
        (Array.of_list !tails, Array.of_list !heads))
      labels
  in
  let n = VH.length ids in
  let order = Array.init n Fun.id in
  Array.sort (fun i j -> Value.compare !values.(i) !values.(j)) order;
  let rank_of = Array.make n 0 in
  Array.iteri (fun r i -> rank_of.(i) <- r) order;
  VH.filter_map_inplace (fun _ i -> Some rank_of.(i)) ids;
  let to_rank = Array.map (fun i -> rank_of.(i)) in
  {
    nodes = Array.map (fun i -> !values.(i)) order;
    ranks = ids;
    edges = Array.map (fun (tails, heads) -> (to_rank tails, to_rank heads)) edges;
  }

(* [g] with label [l]'s edges [removed] taken out and [added] put in,
   every node keeping its rank; [None] when an added edge has an
   endpoint [g] does not number, whose rank would move others.  A node
   whose last edge goes stays numbered, with no edges. *)
let revise g l ~added ~removed =
  let ranked t = (VH.find_opt g.ranks (Tuple.get t 0), VH.find_opt g.ranks (Tuple.get t 1)) in
  let added = List.map ranked added in
  if List.exists (fun (u, v) -> Option.is_none u || Option.is_none v) added then None
  else
    (* the removed edges keyed [u * n + v], so each edge is one probe *)
    let n = Array.length g.nodes in
    let gone = Hashtbl.create (List.length removed) in
    List.iter
      (fun t ->
        match ranked t with
        | Some u, Some v -> Hashtbl.replace gone ((u * n) + v) ()
        | _ -> ())
      removed;
    let tails, heads = g.edges.(l) in
    let m = Array.length tails + List.length added in
    let tails' = Array.make m 0 and heads' = Array.make m 0 and k = ref 0 in
    let put u v =
      tails'.(!k) <- u;
      heads'.(!k) <- v;
      incr k
    in
    Array.iteri
      (fun i u -> if not (Hashtbl.mem gone ((u * n) + heads.(i))) then put u heads.(i))
      tails;
    List.iter (fun (u, v) -> put (Option.get u) (Option.get v)) added;
    let edges = Array.copy g.edges in
    edges.(l) <- (Array.sub tails' 0 !k, Array.sub heads' 0 !k);
    Some { g with edges }

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

(* Up to this many answers of one source are sorted by insertion. *)
let few = 32

(* A state's moves along one label, laid out for the inner loop. *)
type move = { start : int array; adj : int array; into : int array; emits : bool }

(* Every node from which some label's edges lead to one of [targets],
   the targets included (absent from [g] or not), in [Value.compare]
   order: one breadth-first search over every label's edges reversed. *)
let upstream g targets =
  let n = Array.length g.nodes in
  let start, adj =
    adjacency n
      (Array.concat (Array.to_list (Array.map snd g.edges)))
      (Array.concat (Array.to_list (Array.map fst g.edges)))
  in
  let marked = Array.make n false and queue = Array.make n 0 and tail = ref 0 in
  let visit u =
    if not marked.(u) then begin
      marked.(u) <- true;
      queue.(!tail) <- u;
      incr tail
    end
  in
  let absent =
    List.filter
      (fun v ->
        match VH.find_opt g.ranks v with
        | Some u ->
          visit u;
          false
        | None -> true)
      targets
  in
  let next = ref 0 in
  while !next < !tail do
    let u = queue.(!next) in
    for i = start.(u) to start.(u + 1) - 1 do
      visit adj.(i)
    done;
    incr next
  done;
  let present = ref [] in
  for u = n - 1 downto 0 do
    if marked.(u) then present := g.nodes.(u) :: !present
  done;
  List.merge Value.compare (List.sort_uniq Value.compare absent) !present

let nodes g = g.nodes

let run g a seed emit =
  let edges = g.edges in
  let n = Array.length g.nodes in
  let rank v = VH.find_opt g.ranks v in
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
       of one another; 2 and 4 lose on a 256-chain.  A few answers are
       sorted in place by insertion, with no call per comparison: the
       32 sources of a bridge over 8 chains of 32 nodes (752 answers)
       took 103 us through [Array.sort], 29 us so. *)
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
    else if count <= few then
      for i = 1 to count - 1 do
        let x = reached.(i) and j = ref (i - 1) in
        while !j >= 0 && reached.(!j) > x do
          reached.(!j + 1) <- reached.(!j);
          decr j
        done;
        reached.(!j + 1) <- x
      done
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
      traverse s (emit s)
    done;
    n
  | From vs ->
    let sources = List.sort_uniq Int.compare (List.filter_map rank vs) in
    List.iter (fun s -> traverse s (emit s)) sources;
    List.length sources
  | To v -> (
    match rank v with
    | None -> 0
    | Some t ->
      traverse t (fun s -> emit s t);
      1)
