(* The four served workloads.  Each is a DBPL init program, the client's
   statement stream, a check on every reply, and state checks run before
   the crash and after recovery.  All of it comes from the seed. *)

open Dc_relation
open Drive
module Rng = Dc_workload.Rng
module TS = Dc_datalog.Facts.TS
module Client = Dc_net.Net.Client

type instance = {
  next : unit -> stmt;  (** the client's statement stream *)
  check : stmt -> response -> bool;
  crash_suffix : unit -> string list;
      (** statements sent just before SIGKILL: a catalog change (which
          checkpoints) and then a fixed number of commits, so every
          recovery replays the same log suffix *)
  verify : Client.t -> (string * bool) list;
      (** named state checks against the live server *)
}

type t = {
  name : string;
  unit_len : int;
  warmup_s : float;  (** whole units run before the window, at least one *)
  init : string;
  start : unit -> instance;  (** fresh streams and expected state *)
}

let read ?(key = -1) kind text = { kind; key; text; write = false }
let write kind text = { kind; key = -1; text; write = true }

(* The crash suffix of a workload that does not write: a checkpoint,
   then 1,000 commits inserting and deleting one scratch edge, which
   leave the state as they found it. *)
let edge_mark = Gen.edge_types ^ "VAR Crash_mark: edgerel;"

let scratch_toggles rel =
  edge_mark
  :: List.init 1000 (fun i ->
         Printf.sprintf {|%s %s VALUES ("crash_a", "crash_b");|}
           (if i mod 2 = 0 then "INSERT" else "DELETE")
           rel)

let str t i = match Tuple.get t i with Value.Str s -> s | v -> Value.to_string v

let rows_of c text =
  let _, _, rows = Client.query c text in
  rows

let set_of rows = List.fold_left (fun s t -> TS.add t s) TS.empty rows

let pair a b = Tuple.make2 (Value.str a) (Value.str b)

let where_a k s = TS.filter (fun t -> str t 0 = k) s

let rows_digest = function Rows r -> Some (Gen.digest_of_list r) | Output _ -> None

let scene_pairs rel = List.map (fun t -> (str t 0, str t 1)) (Relation.to_list rel)

(* ------------------------------------------------------------------ *)
(* closure_batch: passes of four recursive queries (the
   point query twice, so the median statement sits inside one cost
   class).  Nothing is materialized, so every statement recomputes a
   least fixpoint. *)

let point_closure k = Printf.sprintf {|QUERY {EACH p IN Chain{tc()}: p.a = "%s"};|} k

let closure_batch seed =
  let rng = Rng.create seed in
  let chain = Gen.(named (chain 256)) in
  let rand = Gen.(named (strongly_connected rng ~nodes:300 ~edges:900)) in
  let infront, ontop = Dc_workload.Graph_gen.scene ~depth:256 ~stack:3 in
  let infront = scene_pairs infront and ontop = scene_pairs ontop in
  let init =
    String.concat ""
      [
        Gen.edge_types;
        "VAR Chain: edgerel;\nVAR Rand: edgerel;\n";
        Gen.tc_decl;
        Gen.tcn_decl;
        Gen.scene_decls;
        Gen.insert "Chain" chain;
        Gen.insert "Rand" rand;
        Gen.insert "Infront" infront;
        Gen.insert "Ontop" ontop;
      ]
  in
  let chain_tc = Gen.closure chain in
  let expected =
    [
      ("nonlinear", Gen.digest_of_set chain_tc);
      ("random", Gen.digest_of_set (Gen.closure rand));
      ( "scene",
        Gen.digest_of_set
          (Dc_datalog.Seminaive.query Gen.scene_program
             (Gen.facts [ ("infront", infront); ("ontop", ontop) ])
             "ahead") );
    ]
  in
  let points = Array.init 256 (fun k -> Gen.digest_of_set (where_a (Gen.node k) chain_tc)) in
  let start () =
    let rng = Rng.create (seed + 1) in
    let i = ref (-1) in
    let next () =
      incr i;
      match !i mod 5 with
      | 0 -> read "nonlinear" "QUERY Chain{tcn()};"
      | 1 -> read "random" "QUERY Rand{tc()};"
      | 2 -> read "scene" "QUERY Infront{ahead(Ontop)};"
      | _ ->
        let k = Rng.int rng 256 in
        read ~key:k "point" (point_closure (Gen.node k))
    in
    let digest_for st =
      if st.kind = "point" then points.(st.key) else List.assoc st.kind expected
    in
    {
      next;
      check = (fun st resp -> rows_digest resp = Some (digest_for st));
      crash_suffix = (fun () -> scratch_toggles "Chain");
      verify =
        (fun c ->
          [
            ( "base relations intact",
              List.for_all
                (fun (rel, pairs) ->
                  Gen.digest_of_list (rows_of c ("QUERY " ^ rel ^ ";"))
                  = Gen.digest_of_list (List.map (fun (a, b) -> pair a b) pairs))
                [ ("Chain", chain); ("Rand", rand); ("Infront", infront); ("Ontop", ontop) ] );
            ( "point closure",
              Gen.digest_of_list (rows_of c (point_closure "n7")) = points.(7) );
          ]);
    }
  in
  {
    name = "closure_batch";
    unit_len = 5;
    warmup_s = 0.1;
    init;
    start;
  }

(* ------------------------------------------------------------------ *)
(* The edge set point_reads and view_updates share: 8 chains of 32
   nodes with seeded shortcuts, 384 edges. *)

let dag seed = Gen.chains_dag (Rng.create seed) ~chains:8 ~len:32 ~edges:384

let dag_pairs d = Gen.named d.Gen.edges

(* ------------------------------------------------------------------ *)
(* point_reads: the same two-hop point query with seeded keys.  A few rows per reply and no fixpoint: per-statement fixed
   costs dominate. *)

let two_hop k =
  Printf.sprintf
    {|QUERY {<e.a, f.b> OF EACH e IN Edge, EACH f IN Edge: e.a = "%s" AND e.b = f.a};|} k

let point_reads seed =
  let d = dag seed in
  let edges = dag_pairs d in
  let init = Gen.edge_types ^ "VAR Edge: edgerel;\n" ^ Gen.insert "Edge" edges in
  let n = d.Gen.chains * d.Gen.len in
  (* expected answers, from plain adjacency lists *)
  let expected =
    let succ = Hashtbl.create n in
    List.iter (fun (a, b) -> Hashtbl.add succ a b) edges;
    Array.init n (fun k ->
        let x = Gen.node k in
        Gen.digest_of_set
          (List.fold_left
             (fun s y ->
               List.fold_left (fun s z -> TS.add (pair x z) s) s (Hashtbl.find_all succ y))
             TS.empty (Hashtbl.find_all succ x)))
  in
  let start () =
    let rng = Rng.create ((seed * 31) + 1) in
    {
      next =
        (fun () ->
          let k = Rng.int rng n in
          read ~key:k "two_hop" (two_hop (Gen.node k)));
      check =
        (fun st resp -> rows_digest resp = Some expected.(st.key));
      crash_suffix = (fun () -> scratch_toggles "Edge");
      verify =
        (fun c ->
          [
            ( "edges intact",
              Gen.digest_of_list (rows_of c "QUERY Edge;")
              = Gen.digest_of_list (List.map (fun (a, b) -> pair a b) edges) );
          ]);
    }
  in
  {
    name = "point_reads";
    unit_len = 1;
    warmup_s = 1.;
    init;
    start;
  }

(* ------------------------------------------------------------------ *)
(* view_updates: the DAG under a maintained closure view (DRed), served
   durably; three view point reads to one write.  A write inserts or
   deletes one bridge from the tail of an even chain to the last
   [32 - bridge_to] nodes of an odd one, and the next write deletes the
   bridge the last one inserted: each adds or removes exactly 32·8
   closure rows, so every write costs the same whatever the seed. *)

let view_read k = Printf.sprintf {|QUERY {EACH p IN Edge{tc()}: p.a = "%s"};|} k

let view_read_share = 0.75

let bridge_to = 24

let view_updates seed =
  let d = dag seed in
  let edges = dag_pairs d in
  let init =
    String.concat ""
      [
        Gen.edge_types;
        "VAR Edge: edgerel;\n";
        Gen.tc_decl;
        Gen.insert "Edge" edges;
        "MATERIALIZE Edge{tc()};\n";
      ]
  in
  let bridges =
    Array.of_list
      (List.concat_map
         (fun a ->
           List.map
             (fun b -> (Gen.node (d.Gen.at a (d.Gen.len - 1)), Gen.node (d.Gen.at b bridge_to)))
             [ 1; 3; 5; 7 ])
         [ 0; 2; 4; 6 ])
  in
  Rng.shuffle (Rng.create (seed + 2)) bridges;
  let n = d.Gen.chains * d.Gen.len in
  (* every read lies between the closure of the base and the closure
     with every bridge present *)
  let bounds =
    let lo = Gen.closure edges in
    let hi = Gen.closure (edges @ Array.to_list bridges) in
    Array.init n (fun k -> (where_a (Gen.node k) lo, where_a (Gen.node k) hi))
  in
  let start () =
    let outstanding = ref None and writes = ref 0 in
    let next_write () =
      let j = !writes in
      incr writes;
      let a, b = bridges.(j / 2 mod Array.length bridges) in
      if j mod 2 = 0 then begin
        outstanding := Some (a, b);
        write "insert" (Printf.sprintf {|INSERT Edge VALUES ("%s", "%s");|} a b)
      end
      else begin
        outstanding := None;
        write "delete" (Printf.sprintf {|DELETE Edge VALUES ("%s", "%s");|} a b)
      end
    in
    let rng = Rng.create ((seed * 31) + 1) in
    let next () =
      if Rng.float rng < view_read_share then
        let k = Rng.int rng n in
        read ~key:k "view_read" (view_read (Gen.node k))
      else next_write ()
    in
    let check st = function
      | Output _ -> st.write
      | Rows rows ->
        let lo, hi = bounds.(st.key) in
        let got = set_of rows in
        TS.subset lo got && TS.subset got hi
    in
    let verify c =
      let base = set_of (rows_of c "QUERY Edge;") in
      let want = Option.to_list !outstanding @ edges |> List.map (fun (a, b) -> pair a b) |> set_of in
      let view = set_of (rows_of c "QUERY Edge{tc()};") in
      let pairs = List.map (fun t -> (str t 0, str t 1)) (TS.elements base) in
      [
        ("base holds every acknowledged write", TS.equal base want);
        ("view equals a from-scratch closure of the base", TS.equal view (Gen.closure pairs));
      ]
    in
    {
      next;
      check;
      crash_suffix = (fun () -> edge_mark :: List.init 64 (fun _ -> (next_write ()).text));
      verify;
    }
  in
  {
    name = "view_updates";
    unit_len = 1;
    warmup_s = 1.;
    init;
    start;
  }

(* ------------------------------------------------------------------ *)
(* durable_commits: single-tuple toggles (DELETE, then INSERT back) on
   seeded keys of a 20,000-tuple relation no view reads.  The commit
   path (writer queue, commit point, WAL append, fsync, ack) does the
   work. *)

let kv_size = 20_000

(* The key is the whole tuple: a partial key makes every inserted tuple
   scan the relation for a clash (Relation.violates_key), which would
   put an O(|Kv|) cost into each commit this workload means to time. *)
let kv_type = "TYPE kvrel = RELATION k, v OF RECORD k, v: INTEGER END;\n"

let durable_commits seed =
  let rng = Rng.create seed in
  let values = Array.init kv_size (fun _ -> Rng.int rng 1_000_000) in
  let tuple k = Printf.sprintf "(%d, %d)" k values.(k) in
  let init =
    kv_type ^ "VAR Kv: kvrel;\nINSERT Kv VALUES "
    ^ String.concat ", " (List.init kv_size tuple)
    ^ ";\n"
  in
  let keys = Array.init kv_size Fun.id in
  Rng.shuffle (Rng.create (seed + 3)) keys;
  let start () =
    let deleted = ref None and writes = ref 0 in
    let next () =
      let j = !writes in
      incr writes;
      let k = keys.(j / 2 mod kv_size) in
      if j mod 2 = 0 then begin
        deleted := Some k;
        write "delete" ("DELETE Kv VALUES " ^ tuple k ^ ";")
      end
      else begin
        deleted := None;
        write "insert" ("INSERT Kv VALUES " ^ tuple k ^ ";")
      end
    in
    let verify c =
      let want =
        List.filter_map
          (fun k ->
            if !deleted = Some k then None
            else Some (Tuple.make2 (Value.Int k) (Value.Int values.(k))))
          (List.init kv_size Fun.id)
      in
      [
        ( "every acknowledged write is present",
          Gen.digest_of_list (rows_of c "QUERY Kv;") = Gen.digest_of_list want );
      ]
    in
    {
      next;
      check = (fun st resp -> st.write && (match resp with Output _ -> true | Rows _ -> false));
      crash_suffix =
        (fun () -> (kv_type ^ "VAR Crash_mark: kvrel;") :: List.init 1000 (fun _ -> (next ()).text));
      verify;
    }
  in
  {
    name = "durable_commits";
    unit_len = 1;
    warmup_s = 1.;
    init;
    start;
  }

let all =
  [
    ("closure_batch", closure_batch);
    ("point_reads", point_reads);
    ("view_updates", view_updates);
    ("durable_commits", durable_commits);
  ]

let names = List.map fst all

let find name seed = Option.map (fun make -> make seed) (List.assoc_opt name all)
