(* Seeded inputs: graph shapes, the DBPL text the server is initialised
   with, and the datalog programs the output checks evaluate.

   Graph shapes are chosen so that the work a statement does is the same
   for every seed: the seed decides node labels, which edges carry
   shortcuts, which keys are read and which edges are toggled, but not
   the size of a closure.  Run-to-run spread then measures the system,
   not the input. *)

open Dc_relation
module Rng = Dc_workload.Rng
module Dl = Dc_datalog.Syntax

let node i = Printf.sprintf "n%d" i

let quote_pairs pairs =
  String.concat ", "
    (List.map (fun (a, b) -> Printf.sprintf {|("%s", "%s")|} a b) pairs)

let insert rel pairs = Printf.sprintf "INSERT %s VALUES %s;\n" rel (quote_pairs pairs)

let named = List.map (fun (a, b) -> (node a, node b))

let edge_types =
  {|TYPE node = STRING;
TYPE edgerel = RELATION a, b OF RECORD a, b: node END;
|}

let tc_decl =
  {|CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <e.a, p.b> OF EACH e IN Rel, EACH p IN Rel{tc()}: e.b = p.a
END tc;
|}

let tcn_decl =
  {|CONSTRUCTOR tcn FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <p.a, q.b> OF EACH p IN Rel{tcn()}, EACH q IN Rel{tcn()}: p.b = q.a
END tcn;
|}

(* The paper's §3.1 scene: mutually recursive ahead/above. *)
let scene_decls =
  {|TYPE infrontrel = RELATION front, back OF RECORD front, back: node END;
TYPE ontoprel = RELATION top, base OF RECORD top, base: node END;
TYPE aheadrel = RELATION head, tail OF RECORD head, tail: node END;
TYPE aboverel = RELATION high, low OF RECORD high, low: node END;
VAR Infront: infrontrel;
VAR Ontop: ontoprel;
CONSTRUCTOR ahead FOR Rel: infrontrel (Ontop: ontoprel): aheadrel;
BEGIN EACH r IN Rel: TRUE,
      <r.front, ah.tail> OF EACH r IN Rel, EACH ah IN Rel{ahead(Ontop)}:
        r.back = ah.head,
      <r.front, ab.low> OF EACH r IN Rel, EACH ab IN Ontop{above(Rel)}:
        r.back = ab.high
END ahead;
CONSTRUCTOR above FOR Rel: ontoprel (Infront: infrontrel): aboverel;
BEGIN EACH r IN Rel: TRUE,
      <r.top, ab.low> OF EACH r IN Rel, EACH ab IN Rel{above(Infront)}:
        r.base = ab.high,
      <r.top, ah.tail> OF EACH r IN Rel, EACH ah IN Infront{ahead(Rel)}:
        r.base = ah.head
END above;
|}

(* ------------------------------------------------------------------ *)
(* Graph shapes *)

let chain n = List.init n (fun i -> (i, i + 1))

(* [nodes] nodes on a seeded Hamiltonian cycle plus random extra edges up
   to [edges]: a random digraph that is always strongly connected, so its
   closure has exactly nodes² rows whatever the seed. *)
let strongly_connected rng ~nodes ~edges =
  let perm = Array.init nodes Fun.id in
  Rng.shuffle rng perm;
  let seen = Hashtbl.create (2 * edges) in
  let add acc (a, b) =
    if a = b || Hashtbl.mem seen (a, b) then acc
    else (Hashtbl.replace seen (a, b) (); (a, b) :: acc)
  in
  let cycle =
    List.fold_left add [] (List.init nodes (fun i -> (perm.(i), perm.((i + 1) mod nodes))))
  in
  let rec extra acc k =
    if k = 0 then acc
    else
      let a = Rng.int rng nodes and b = Rng.int rng nodes in
      let acc' = add acc (a, b) in
      extra acc' (if acc' == acc then k else k - 1)
  in
  List.rev (extra cycle (edges - List.length cycle))

(* [chains] disjoint chains of [len] nodes under a seeded labelling, plus
   seeded forward shortcuts inside each chain up to [edges] edges in
   all.  Shortcuts add paths but never reachability, so the closure has
   exactly chains·len·(len-1)/2 rows.  [at c p] is the label of position
   [p] of chain [c]. *)
type dag = { edges : (int * int) list; at : int -> int -> int; chains : int; len : int }

let chains_dag rng ~chains ~len ~edges =
  let perm = Array.init (chains * len) Fun.id in
  Rng.shuffle rng perm;
  let at c p = perm.((c * len) + p) in
  let seen = Hashtbl.create (2 * edges) in
  let base =
    List.concat
      (List.init chains (fun c -> List.init (len - 1) (fun p -> (c, p, p + 1))))
  in
  List.iter (fun e -> Hashtbl.replace seen e ()) base;
  let rec shortcuts acc k =
    if k = 0 then acc
    else
      let c = Rng.int rng chains and p = Rng.int rng (len - 2) in
      let q = p + 2 + Rng.int rng (len - p - 2) in
      if Hashtbl.mem seen (c, p, q) then shortcuts acc k
      else (Hashtbl.replace seen (c, p, q) (); shortcuts ((c, p, q) :: acc) (k - 1))
  in
  let all = base @ List.rev (shortcuts [] (edges - List.length base)) in
  { edges = List.map (fun (c, p, q) -> (at c p, at c q)) all; at; chains; len }

(* ------------------------------------------------------------------ *)
(* Datalog oracles: the same recursion evaluated by Dc_datalog.Seminaive,
   which shares no code with the constructor fixpoint the server runs. *)

let v = Dl.var

let tc_program =
  Dl.
    [
      rule (atom "path" [ v "X"; v "Y" ]) [ Pos (atom "edge" [ v "X"; v "Y" ]) ];
      rule
        (atom "path" [ v "X"; v "Z" ])
        [ Pos (atom "edge" [ v "X"; v "Y" ]); Pos (atom "path" [ v "Y"; v "Z" ]) ];
    ]

let scene_program =
  Dl.
    [
      rule (atom "ahead" [ v "F"; v "B" ]) [ Pos (atom "infront" [ v "F"; v "B" ]) ];
      rule
        (atom "ahead" [ v "F"; v "T" ])
        [ Pos (atom "infront" [ v "F"; v "B" ]); Pos (atom "ahead" [ v "B"; v "T" ]) ];
      rule
        (atom "ahead" [ v "F"; v "L" ])
        [ Pos (atom "infront" [ v "F"; v "B" ]); Pos (atom "above" [ v "B"; v "L" ]) ];
      rule (atom "above" [ v "T"; v "B" ]) [ Pos (atom "ontop" [ v "T"; v "B" ]) ];
      rule
        (atom "above" [ v "T"; v "L" ])
        [ Pos (atom "ontop" [ v "T"; v "B" ]); Pos (atom "above" [ v "B"; v "L" ]) ];
      rule
        (atom "above" [ v "T"; v "L" ])
        [ Pos (atom "ontop" [ v "T"; v "B" ]); Pos (atom "ahead" [ v "B"; v "L" ]) ];
    ]

let facts rels =
  List.fold_left
    (fun acc (pred, pairs) ->
      List.fold_left
        (fun acc (a, b) -> Dc_datalog.Facts.add acc pred (Tuple.make2 (Value.str a) (Value.str b)))
        acc pairs)
    (Dc_datalog.Facts.empty ()) rels

let closure pairs =
  Dc_datalog.Seminaive.query tc_program (facts [ ("edge", pairs) ]) "path"

(* An order-independent digest of an extent: row count and hash sum. *)
type digest = int * int

let digest_of_list tuples =
  List.fold_left (fun (n, h) t -> (n + 1, (h + Tuple.hash t) land max_int)) (0, 0) tuples

let digest_of_set s = digest_of_list (Dc_datalog.Facts.TS.elements s)
