(* Augmented quant graphs (paper §4, Fig 3).

   A quant graph represents a relational calculus query: a node for each
   tuple variable with its range definition and a directed arc for each
   join term.  The augmented graph adds special nodes for constructor heads
   and arcs for the attribute relationships between the result relation and
   the range definitions, plus arcs from each quantified node with a
   constructed range to the corresponding constructor head (yielding the
   equivalent of a clause interconnectivity graph [Sick 76]).  Cycles in
   the augmented graph correspond to recursion; the planner generates
   fixpoint plans for them. *)

open Dc_calculus

type node =
  | Quant of {
      var : Ast.var;
      range : Ast.range;
      owner : string option; (* constructor whose body this binder is in *)
    }
  | Head of { con : string } (* constructor head node *)

type edge = {
  src : int;
  dst : int;
  label : string;
}

type t = {
  nodes : node array;
  edges : edge list;
}

let node_label = function
  | Quant { var; range; _ } -> Fmt.str "EACH %s IN %a" var Ast.pp_range range
  | Head { con } -> Fmt.str "CONSTRUCTOR %s" con

(* ------------------------------------------------------------------ *)
(* Construction *)

type builder = {
  mutable b_nodes : node list; (* reversed *)
  mutable b_count : int;
  mutable b_edges : edge list;
  mutable b_heads : (string * int) list; (* constructor -> head node *)
  lookup : string -> Defs.constructor_def option;
}

let add_node b n =
  b.b_nodes <- n :: b.b_nodes;
  b.b_count <- b.b_count + 1;
  b.b_count - 1

let add_edge b src dst label = b.b_edges <- { src; dst; label } :: b.b_edges

(* join-term arcs between binder nodes of one branch: for each equality
   conjunct v1.a1 = v2.a2 an arc in quantifier (program) order *)
let join_edges b index_of (branch : Ast.branch) =
  List.iter
    (fun conj ->
      match conj with
      | Ast.Cmp (Ast.Eq, Ast.Field (v1, a1), Ast.Field (v2, a2)) -> (
        match index_of v1, index_of v2 with
        | Some i, Some j when i <> j ->
          add_edge b i j (Fmt.str "%s=%s" a1 a2)
        | _ -> ())
      | _ -> ())
    (Ast.conjuncts branch.where)

(* Expand a constructor definition into the graph (once per name): a head
   node, one quant node per binder of each branch, target arcs head ->
   binder ("attribute relationships"), join arcs among binders, and
   application arcs binder -> head for constructed ranges. *)
let rec head_node b con =
  match List.assoc_opt con b.b_heads with
  | Some i -> i
  | None -> (
    match b.lookup con with
    | None -> add_node b (Head { con }) (* unknown: bare head node *)
    | Some def ->
      let h = add_node b (Head { con }) in
      b.b_heads <- (con, h) :: b.b_heads;
      List.iter
        (fun (branch : Ast.branch) ->
          let binder_nodes =
            List.map
              (fun (v, range) ->
                (v, add_node b (Quant { var = v; range; owner = Some con })))
              branch.binders
          in
          let index_of v = List.assoc_opt v binder_nodes in
          (* attribute-relationship arcs from the head to the binders that
             feed the target list *)
          (match branch.target with
          | [] ->
            List.iter (fun (v, i) -> add_edge b h i (Fmt.str "%s=*" v)) binder_nodes
          | ts ->
            List.iteri
              (fun pos t ->
                match t with
                | Ast.Field (v, a) -> (
                  match index_of v with
                  | Some i ->
                    add_edge b h i
                      (Fmt.str "col%d=%s.%s" pos v a)
                  | None -> ())
                | _ -> ())
              ts);
          join_edges b index_of branch;
          (* application arcs: binder with constructed range -> head *)
          List.iter
            (fun (v, range) ->
              List.iter
                (fun (app : Vars.app) ->
                  let i = List.assoc v binder_nodes in
                  let h' = head_node b app.app_con in
                  add_edge b i h' "applies")
                (Vars.apps_of_range range))
            branch.binders)
        def.con_body;
      h)

let build ~lookup (query : Ast.range) =
  let b =
    { b_nodes = []; b_count = 0; b_edges = []; b_heads = []; lookup }
  in
  (match query with
  | Ast.Comp branches ->
    List.iter
      (fun (branch : Ast.branch) ->
        let binder_nodes =
          List.map
            (fun (v, range) ->
              (v, add_node b (Quant { var = v; range; owner = None })))
            branch.binders
        in
        join_edges b (fun v -> List.assoc_opt v binder_nodes) branch;
        List.iter
          (fun (v, range) ->
            List.iter
              (fun (app : Vars.app) ->
                let i = List.assoc v binder_nodes in
                let h = head_node b app.app_con in
                add_edge b i h "applies")
              (Vars.apps_of_range range))
          branch.binders)
      branches
  | range ->
    (* bare range: one synthetic quant node *)
    let i = add_node b (Quant { var = "r"; range; owner = None }) in
    List.iter
      (fun (app : Vars.app) ->
        let h = head_node b app.app_con in
        add_edge b i h "applies")
      (Vars.apps_of_range range));
  { nodes = Array.of_list (List.rev b.b_nodes); edges = List.rev b.b_edges }

(* ------------------------------------------------------------------ *)
(* Analysis *)

(* Strongly connected components of the graph (Tarjan over node indices). *)
let sccs g =
  let n = Array.length g.nodes in
  let succ = Array.make n [] in
  List.iter (fun e -> succ.(e.src) <- e.dst :: succ.(e.src)) g.edges;
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] and next = ref 0 and comps = ref [] in
  let rec strong v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      succ.(v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      comps := pop [] :: !comps
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strong v
  done;
  List.rev !comps

let has_self_edge g v = List.exists (fun e -> e.src = v && e.dst = v) g.edges

(* Node sets lying on recursive cycles. *)
let recursive_components g =
  List.filter
    (fun comp ->
      match comp with
      | [ v ] -> has_self_edge g v
      | _ -> List.length comp > 1)
    (sccs g)

let is_recursive g = recursive_components g <> []

(* Constructors involved in recursion (head nodes inside cyclic SCCs). *)
let recursive_constructors g =
  List.concat_map
    (fun comp ->
      List.filter_map
        (fun v ->
          match g.nodes.(v) with
          | Head { con } -> Some con
          | Quant _ -> None)
        comp)
    (recursive_components g)
  |> List.sort_uniq String.compare

let pp ppf g =
  Fmt.pf ppf "augmented quant graph: %d nodes, %d edges@."
    (Array.length g.nodes) (List.length g.edges);
  Array.iteri (fun i n -> Fmt.pf ppf "  [%d] %s@." i (node_label n)) g.nodes;
  List.iter
    (fun e -> Fmt.pf ppf "  %d -> %d  (%s)@." e.src e.dst e.label)
    g.edges;
  match recursive_components g with
  | [] -> Fmt.pf ppf "  acyclic: decompile as view@."
  | comps ->
    List.iter
      (fun comp ->
        Fmt.pf ppf "  recursive cycle through nodes {%s}@."
          (String.concat ", " (List.map string_of_int comp)))
      comps
