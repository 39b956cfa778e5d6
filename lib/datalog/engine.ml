(* The Datalog rule compiler: shared machinery of the engines, now a
   lowering onto the physical operator IR instead of a tuple-at-a-time
   substitution interpreter.

   One rule body becomes one pipeline: positive atoms compile to scans or
   keyed probes (argument positions holding constants or already-bound
   variables form the index key), negated atoms to anti-joins, built-in
   tests to filters attached at the earliest point their variables are
   bound.  The row threaded through the pipeline is a [Value.t array] with
   one slot per rule variable, written in place — the executor's
   depth-first traversal makes the reuse safe, so a rule evaluation
   allocates one row per run, not one substitution per binding step.

   Delta-awareness comes from the IR's named sources: an atom occurrence
   reads "pred" (the full store) or "Δpred" (the round's delta), and the
   per-round context swaps the stores under an unchanged pipeline — the
   semi-naive engine rebuilds nothing between rounds. *)

open Dc_relation
open Syntax

module Ir = Dc_exec.Ir
module Extent = Dc_exec.Extent
module Join_order = Dc_exec.Join_order

type row = Value.t array

(* Structured errors: one taxonomy for the whole Datalog layer instead of
   ad-hoc [invalid_arg]s, so drivers can distinguish user mistakes
   (unsafe rules) from engine limitations and internal invariants. *)
type error_kind =
  | Unsafe_rule
  | Unbound_variable
  | Unsupported
  | Internal

let error_kind_name = function
  | Unsafe_rule -> "unsafe rule"
  | Unbound_variable -> "unbound variable"
  | Unsupported -> "unsupported"
  | Internal -> "internal"

exception Error of error_kind * string

let error kind fmt =
  Fmt.kstr (fun s -> raise (Error (kind, s))) fmt

let pp_error ppf (kind, msg) =
  Fmt.pf ppf "%s: %s" (error_kind_name kind) msg

let dummy = Value.Bool false

(* ------------------------------------------------------------------ *)
(* Extents over fact stores, and the naming convention that lets one
   pipeline read either the full store or a semi-naive delta. *)

let store_extent ?label (store : Facts.t) pred =
  let label = Option.value label ~default:pred in
  {
    Extent.label;
    cardinal = (fun () -> Some (Facts.cardinal store pred));
    iter = (fun f -> Facts.TS.iter f (Facts.find store pred));
    lookup = Facts.lookup_values store pred;
    mem = (fun t -> Facts.mem store pred t);
  }

let delta_prefix = "\xce\x94" (* UTF-8 Δ *)

let delta_name pred = delta_prefix ^ pred

let split_delta name =
  let n = String.length delta_prefix in
  if String.length name > n && String.equal (String.sub name 0 n) delta_prefix
  then Some (String.sub name n (String.length name - n))
  else None

(* Second naming layer for the incremental-maintenance counting pass,
   which telescopes a product of per-atom updates: positions left of the
   delta read the post-update store ("⊕pred"), the delta position reads
   "Δpred", positions right of it read the pre-update store ("pred"). *)
let post_prefix = "\xe2\x8a\x95" (* UTF-8 ⊕ *)

let post_name pred = post_prefix ^ pred

let split_post name =
  let n = String.length post_prefix in
  if String.length name > n && String.equal (String.sub name 0 n) post_prefix
  then Some (String.sub name n (String.length name - n))
  else None

(* Extents are built once per context and name: a context that serves
   several runs (one per rule of a round) does not rebuild its closures
   per run. *)
let store_ctx store : Ir.ctx =
  let memo = ref [] in
  fun name ->
    match List.assoc_opt name !memo with
    | Some e -> e
    | None ->
      let e = store_extent store name in
      memo := (name, e) :: !memo;
      e

let delta_ctx ~full ~delta : Ir.ctx =
 fun name ->
  match split_delta name with
  | Some pred -> store_extent ~label:name delta pred
  | None -> store_extent full name

let tri_ctx ~pre ~post ~delta : Ir.ctx =
 fun name ->
  match split_delta name with
  | Some pred -> store_extent ~label:name delta pred
  | None -> (
    match split_post name with
    | Some pred -> store_extent ~label:name post pred
    | None -> store_extent pre name)

(* Rules grouped by head predicate, both orders preserved (predicates by
   first appearance, rules by program order). *)
let group_by_head (rules : program) =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt tbl r.head.pred with
      | Some l -> l := r :: !l
      | None ->
        Hashtbl.replace tbl r.head.pred (ref [ r ]);
        order := r.head.pred :: !order)
    rules;
  List.rev_map (fun p -> (p, List.rev !(Hashtbl.find tbl p))) !order

(* ------------------------------------------------------------------ *)
(* Rule compilation *)

type src_spec =
  | Static of Ir.source
  | Dynamic of ((row -> term list) -> row -> Extent.t)
      (* correlated consult (the tabled engine's subgoal tables): receives
         [inst], which instantiates the atom's arguments from the current
         row, and returns the extent to scan *)

type compiled = {
  pipeline : Ir.t;
  n_slots : int;
  slot : string -> int;
  set_init : (unit -> row) -> unit;
      (* override the initial-row thunk (tabled seeds call constants) *)
}

(* Position-wise classification of one atom's arguments, given the
   variables bound before the atom. *)
type arg_action =
  | Key_const of Value.t (* constant: part of the index key *)
  | Key_slot of int (* bound variable: part of the index key *)
  | Write of int (* first occurrence: bind the slot *)
  | Check of int (* repeated within the atom: equality check *)

let compile_rule ?(reorder = true) ?(card = fun _ _ -> None) ?(bound = [])
    ~source ~neg_source ~label rule =
  let positives =
    Array.of_list
      (List.filter_map
         (function
           | Pos a -> Some a
           | Neg _ | Test _ -> None)
         rule.body)
  in
  let constraints =
    List.filter
      (function
        | Pos _ -> false
        | Neg _ | Test _ -> true)
      rule.body
  in
  let n = Array.length positives in
  let bound0 = SS.of_list bound in
  (* Body atoms of a conjunctive rule commute, so placement goes through
     the shared join-order rule: most usable index keys first, cardinality
     hint (the semi-naive delta) second, program order last. *)
  let order =
    if not reorder then List.init n Fun.id
    else begin
      let pos_vars = Array.map (fun a -> SS.of_list (atom_vars a)) positives in
      Join_order.order
        (List.init n (fun i ->
             {
               Join_order.deps = [];
               card = card i positives.(i);
               keys_given =
                 (fun placed ->
                   let bnd =
                     List.fold_left
                       (fun s j -> SS.union s pos_vars.(j))
                       bound0 placed
                   in
                   List.length
                     (List.filter
                        (function
                          | Const _ -> true
                          | Var v -> SS.mem v bnd
                          | Binop _ -> false (* rejected below *))
                        positives.(i).args));
             }))
    end
  in
  (* Slot allocation, in placement order. *)
  let slots = Hashtbl.create 8 in
  let nslots = ref 0 in
  let alloc v =
    match Hashtbl.find_opt slots v with
    | Some s -> s
    | None ->
      let s = !nslots in
      incr nslots;
      Hashtbl.replace slots v s;
      s
  in
  let slot v =
    match Hashtbl.find_opt slots v with
    | Some s -> s
    | None -> error Unbound_variable "compile_rule: unbound variable %s" v
  in
  List.iter (fun v -> ignore (alloc v)) bound;
  let rec getter = function
    | Const c -> fun (_ : row) -> c
    | Var v ->
      let s = slot v in
      fun row -> row.(s)
    | Binop (op, a, b) ->
      (* computed term (premapped-aggregate heads, tests): evaluated per
         row from the getters of its operands *)
      let ga = getter a and gb = getter b in
      let f =
        match (op : Dc_calculus.Ast.binop) with
        | Add -> Value.add
        | Sub -> Value.sub
        | Mul -> Value.mul
      in
      fun row -> f (ga row) (gb row)
  in
  (* Negations and tests attach at the earliest prefix where they are
     ground (safety guarantees they eventually are). *)
  let bound_now = ref bound0 in
  let lit_ready = function
    | Pos _ -> true
    | Neg a -> List.for_all (fun v -> SS.mem v !bound_now) (atom_vars a)
    | Test (_, x, y) ->
      List.for_all (fun v -> SS.mem v !bound_now) (term_vars x @ term_vars y)
  in
  let attach lit node =
    match lit with
    | Test (op, x, y) ->
      let gx = getter x and gy = getter y in
      Ir.filter
        ~label:(lazy (Fmt.str "%a" pp_lit lit))
        ~pred:(fun row -> Dc_calculus.Eval.eval_cmp op (gx row) (gy row))
        node
    | Neg a ->
      let getters = List.map getter a.args in
      Ir.anti_join
        ~label:(lazy (Fmt.str "%a" pp_lit lit))
        ~src:(neg_source a)
        ~key:(fun row -> Tuple.of_list (List.map (fun g -> g row) getters))
        node
    | Pos _ -> assert false
  in
  let pending = ref constraints in
  let node = ref (Ir.seed ()) in
  let attach_ready () =
    let ready, still = List.partition lit_ready !pending in
    pending := still;
    List.iter (fun lit -> node := attach lit !node) ready
  in
  attach_ready ();
  List.iter
    (fun i ->
      let a = positives.(i) in
      let actions =
        List.mapi
          (fun p arg ->
            ( p,
              match arg with
              | Const c -> Key_const c
              | Binop _ ->
                error Unsupported
                  "compile_rule: computed term in body atom argument: %a"
                  pp_atom a
              | Var v ->
                if SS.mem v !bound_now then Key_slot (slot v)
                else (
                  match Hashtbl.find_opt slots v with
                  | Some s -> Check s (* repeated within this atom *)
                  | None -> Write (alloc v)) ))
          a.args
      in
      (* Compile a list of per-position actions into the bind closure run
         on each candidate tuple. *)
      let bind_of items =
        let acts = Array.of_list items in
        let m = Array.length acts in
        fun row t ->
          let rec go k =
            k = m
            ||
            match acts.(k) with
            | p, Write s ->
              row.(s) <- Tuple.get t p;
              go (k + 1)
            | p, Check s -> Value.equal row.(s) (Tuple.get t p) && go (k + 1)
            | p, Key_const c -> Value.equal c (Tuple.get t p) && go (k + 1)
            | p, Key_slot s -> Value.equal row.(s) (Tuple.get t p) && go (k + 1)
          in
          if go 0 then Some row else None
      in
      let alabel = lazy (Fmt.str "%a" pp_atom a) in
      (match source i a with
      | Dynamic mk ->
        (* Correlated consult: key positions degrade to checks (the
           generated extent has no access path), and [inst] rebuilds the
           atom's arguments with bound variables instantiated. *)
        let inst_items =
          List.map
            (fun arg ->
              match arg with
              | Const c -> fun (_ : row) -> Const c
              | Binop _ ->
                error Unsupported
                  "compile_rule: computed term in body atom argument: %a"
                  pp_atom a
              | Var v ->
                if SS.mem v !bound_now then begin
                  let s = slot v in
                  fun row -> Const row.(s)
                end
                else fun _ -> Var v)
            a.args
        in
        let inst row = List.map (fun f -> f row) inst_items in
        node :=
          Ir.correlated_scan ~label:alabel ~gen:(mk inst) ~bind:(bind_of actions)
            !node
      | Static src -> (
        let keys =
          List.filter_map
            (fun (p, act) ->
              match act with
              | Key_const c -> Some (p, fun (_ : row) -> c)
              | Key_slot s -> Some (p, fun row -> row.(s))
              | Write _ | Check _ -> None)
            actions
        in
        match keys with
        | [] -> node := Ir.scan ~label:alabel ~src ~bind:(bind_of actions) !node
        | keys ->
          let positions = List.map fst keys in
          let kgetters = List.map snd keys in
          let rest =
            List.filter
              (fun (_, act) ->
                match act with
                | Write _ | Check _ -> true
                | Key_const _ | Key_slot _ -> false)
              actions
          in
          node :=
            Ir.lookup ~label:alabel ~src ~positions
              ~key:(fun row -> List.map (fun g -> g row) kgetters)
              ~bind:(bind_of rest) !node));
      bound_now := SS.union !bound_now (SS.of_list (atom_vars a));
      attach_ready ())
    order;
  if !pending <> [] then
    error Unsafe_rule "compile_rule: unsafe rule (ungroundable constraint): %a"
      pp_rule rule;
  let head_getters = List.map getter rule.head.args in
  let tuple row = Tuple.of_list (List.map (fun g -> g row) head_getters) in
  let n_slots = !nslots in
  let init_ref = ref (fun () -> Array.make n_slots dummy) in
  let pipeline = Ir.project ~label ~init:(fun () -> !init_ref ()) ~tuple !node in
  { pipeline; n_slots; slot; set_init = (fun f -> init_ref := f) }

(* ------------------------------------------------------------------ *)
(* Shared delta-rule derivation.

   Every incremental evaluation scheme in this codebase — semi-naive
   rounds, insert propagation, DRed over-deletion, the counting pass —
   needs the same syntactic object: rule variants where one positive
   occurrence of a "moving" predicate reads a delta while the others read
   a full store.  The variants differ only in which named sources they
   consult, so they are derived here once and specialized per engine by
   the [names] function and the runtime context. *)

(* Positions (among the positive atoms, in program order) whose predicate
   satisfies [member] — the candidate delta positions of [rule]. *)
let delta_positions ~member rule =
  List.filter_map Fun.id
    (List.mapi
       (fun i (a : atom) -> if member a.pred then Some i else None)
       (List.filter_map
          (function
            | Pos a -> Some a
            | Neg _ | Test _ -> None)
          rule.body))

(* One variant of [rule]: positive atom [i] reads the named source
   [names i atom] (so the caller decides which occurrences see a delta,
   a post-update store, or the plain store), negations read the plain
   predicate name.  [delta_pos] marks the delta occurrence with a
   zero-cardinality hint so the join-order rewrite scans it first. *)
let compile_variant ?reorder ?delta_pos ~names ~label rule =
  let card =
    match delta_pos with
    | None -> fun _ _ -> None
    | Some d -> fun i _ -> if i = d then Some 0 else None
  in
  compile_rule ?reorder ~card
    ~source:(fun i a -> Static (Ir.Named (names i a)))
    ~neg_source:(fun (a : atom) -> Ir.Named a.pred)
    ~label rule
