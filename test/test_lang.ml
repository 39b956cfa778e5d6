(* Tests for Dc_lang: lexer, parser, elaborator, and whole-program runs of
   the paper's listings through the surface syntax. *)

open Dc_relation
open Dc_core
open Dc_lang

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i =
    i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1))
  in
  nn = 0 || loop 0

(* ------------------------------------------------------------------ *)
(* Lexer *)

let toks src = List.map (fun l -> l.Token.tok) (Lexer.tokenize src)

let test_lexer_basics () =
  Alcotest.check Alcotest.bool "keywords and idents" true
    (toks "TYPE t = STRING;"
    = [ Token.Kw_type; Token.Ident "t"; Token.Eq; Token.Kw_string; Token.Semi;
        Token.Eof ]);
  Alcotest.check Alcotest.bool "operators" true
    (toks ":= <= >= < > = #"
    = [ Token.Assign; Token.Le; Token.Ge; Token.Lt; Token.Gt; Token.Eq;
        Token.Ne; Token.Eof ]);
  Alcotest.check Alcotest.bool "literals" true
    (toks {|42 3.5 "hi" x|}
    = [ Token.Int_lit 42; Token.Float_lit 3.5; Token.String_lit "hi";
        Token.Ident "x"; Token.Eof ])

let test_lexer_comments () =
  Alcotest.check Alcotest.bool "nested comments" true
    (toks "a (* x (* y *) z *) b" = [ Token.Ident "a"; Token.Ident "b"; Token.Eof ]);
  match toks "(* unterminated" with
  | _ -> Alcotest.fail "expected Lex_error"
  | exception Lexer.Lex_error _ -> ()

let test_lexer_strings () =
  Alcotest.check Alcotest.bool "escapes" true
    (toks {|"a\"b\nc"|} = [ Token.String_lit "a\"b\nc"; Token.Eof ]);
  match toks "\"open" with
  | _ -> Alcotest.fail "expected Lex_error"
  | exception Lexer.Lex_error _ -> ()

let test_lexer_huge_integer () =
  Alcotest.check Alcotest.bool "max_int lexes" true
    (toks (string_of_int max_int) = [ Token.Int_lit max_int; Token.Eof ]);
  match toks "x = 99999999999999999999999" with
  | _ -> Alcotest.fail "expected Lex_error"
  | exception Lexer.Lex_error msg ->
    Alcotest.(check string) "typed, positioned error"
      "1:5: integer literal out of range" msg

let keyword_spellings = List.map fst Token.keywords

let test_keywords_distinct () =
  Alcotest.(check int) "no duplicate keyword spelling"
    (List.length keyword_spellings)
    (List.length (List.sort_uniq String.compare keyword_spellings))

(* The keyword table against its specification, the list scan over
   [Token.keywords]: every keyword, case variants, prefixes and
   extensions of keywords, the contextual GROUP/BY, and random
   identifiers. *)
let gen_word =
  let open QCheck.Gen in
  let kw = oneofl keyword_spellings in
  let ident_start = oneofl (List.init 26 (fun i -> Char.chr (65 + i)) @ List.init 26 (fun i -> Char.chr (97 + i)) @ [ '_' ]) in
  let ident_char = frequency [ (5, ident_start); (1, char_range '0' '9') ] in
  let random =
    map2 (fun c rest -> String.make 1 c ^ rest) ident_start
      (string_size ~gen:ident_char (int_range 0 10))
  in
  let flip_case s =
    map
      (fun flips ->
        String.mapi
          (fun i c ->
            if List.nth flips (i mod List.length flips) then
              if c >= 'a' && c <= 'z' then Char.uppercase_ascii c
              else Char.lowercase_ascii c
            else c)
          s)
      (list_size (int_range 1 8) bool)
  in
  frequency
    [
      (3, kw);
      (2, kw >>= flip_case);
      (2, kw >>= fun s -> map (fun n -> String.sub s 0 n) (int_range 1 (String.length s)));
      (2, map2 ( ^ ) kw (string_size ~gen:ident_char (int_range 1 3)));
      (1, oneofl [ "GROUP"; "BY"; "group"; "By"; "GROUPBY" ]);
      (3, random);
    ]

let prop_keyword_table =
  QCheck.Test.make ~name:"keyword table = list scan over Token.keywords"
    ~count:2000 (QCheck.make ~print:Fun.id gen_word) (fun w ->
      let expected =
        match List.assoc_opt w Token.keywords with
        | Some kw -> kw
        | None -> Token.Ident w
      in
      toks w = [ expected; Token.Eof ])

(* Statement shapes against a direct reading of their rule: a literal
   is lifted iff it is the operand of [v.a = lit] or [lit = v.a] with no
   arithmetic operator on either side.  Statements are random token
   soups over a small vocabulary (parseable or not), weighted towards the
   lifting patterns; a pair shares a statement with its literals and
   some other tokens changed. *)
let shape_piece =
  let open QCheck.Gen in
  let lit =
    frequency
      [
        (3, map string_of_int (int_range 0 4));
        (3, oneofl [ {|"n1"|}; {|"n2"|}; {|"a\"b"|}; {|""|} ]);
        (1, oneofl [ "1.5"; "2.25" ]);
      ]
  in
  frequency
    [
      (4, lit);
      (3, map (fun l -> "e . a = " ^ l) lit);
      (2, map (fun l -> l ^ " = f . b") lit);
      ( 6,
        oneofl
          [ "e"; "f"; "a"; "Edge"; "QUERY"; "EACH"; "IN"; "AND"; "."; "=";
            "+"; "-"; "*"; "{"; "}"; ":"; ","; "<"; ">"; ";"; "("; ")" ] );
    ]

let is_literal_piece p =
  p <> "" && (p.[0] = '"' || (p.[0] >= '0' && p.[0] <= '9'))

let gen_shape_pair =
  let open QCheck.Gen in
  list_size (int_range 0 14) shape_piece >>= fun s1 ->
  let change p =
    if is_literal_piece p then
      frequency [ (1, return p); (1, shape_piece >|= fun q -> if is_literal_piece q then q else p) ]
    else frequency [ (9, return p); (1, shape_piece) ]
  in
  flatten_l (List.map change s1) >|= fun s2 ->
  (String.concat " " s1, String.concat " " s2)

(* The oracle: tokens with every lifted literal replaced by its kind. *)
let lifted_oracle src =
  let toks = Array.of_list (toks src) in
  let n = Array.length toks in
  let at j = if j >= 0 && j < n then toks.(j) else Token.Eof in
  let op j = match at j with Token.Plus | Token.Minus | Token.Star -> true | _ -> false in
  let ident j = match at j with Token.Ident _ -> true | _ -> false in
  let closes j = not (op j || at j = Token.Dot) in
  let lifted i =
    (ident (i - 4) && at (i - 3) = Token.Dot && ident (i - 2) && at (i - 1) = Token.Eq
     && (not (op (i - 5))) && closes (i + 1))
    || ((not (op (i - 1))) && at (i + 1) = Token.Eq && ident (i + 2)
        && at (i + 3) = Token.Dot && ident (i + 4) && closes (i + 5))
  in
  let values = ref [] in
  let norm =
    Array.mapi
      (fun i t ->
        match t with
        | (Token.Int_lit _ | Token.Float_lit _ | Token.String_lit _) when lifted i ->
          let v =
            match t with
            | Token.Int_lit n -> Value.Int n
            | Token.Float_lit f -> Value.Float f
            | Token.String_lit s -> Value.str s
            | _ -> assert false
          in
          values := v :: !values;
          Token.Ident ("?" ^ Value.type_name (Value.type_of v))
        | t -> t)
      toks
  in
  (Array.to_list norm, List.rev !values)

let prop_shape_keys =
  QCheck.Test.make
    ~name:"equal shapes iff equal tokens modulo lifted literals" ~count:2000
    (QCheck.make ~print:(fun (a, b) -> a ^ "  |  " ^ b) gen_shape_pair)
    (fun (s1, s2) ->
      let n1, v1 = lifted_oracle s1 and n2, v2 = lifted_oracle s2 in
      let h1 = Shape.scan s1 and h2 = Shape.scan s2 in
      List.equal Value.equal h1.Shape.values v1
      && List.equal Value.equal h2.Shape.values v2
      && String.equal h1.Shape.key h2.Shape.key = (n1 = n2))

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_range () =
  let r = Parser.parse_range "Infront[hidden_by(\"table\")]{ahead(Ontop)}" in
  match r with
  | Surface.R_construct
      (Surface.R_select (Surface.R_name "Infront", "hidden_by", [ _ ]), "ahead", [ _ ])
    ->
    ()
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_comprehension () =
  let r =
    Parser.parse_range
      "{<f.front, b.back> OF EACH f IN Rel, EACH b IN Rel: f.back = b.front}"
  in
  match r with
  | Surface.R_comp [ { b_target = [ _; _ ]; b_binders = [ _; _ ]; _ } ] -> ()
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_multibranch () =
  let r =
    Parser.parse_range
      "{EACH r IN Rel: TRUE, <f.front, b.back> OF EACH f IN Rel, EACH b IN \
       Rel: f.back = b.front}"
  in
  match r with
  | Surface.R_comp [ b1; b2 ] ->
    Alcotest.check Alcotest.int "branch 1 binders" 1 (List.length b1.b_binders);
    Alcotest.check Alcotest.int "branch 2 binders" 2 (List.length b2.b_binders)
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_quantifiers () =
  (* multi-variable quantifier (SOME r1, r2 IN Objects) desugars to nesting *)
  let p =
    Parser.parse
      {|SELECTOR refint FOR Rel: infrontrel;
        BEGIN EACH r IN Rel:
          SOME r1, r2 IN Objects (r.front = r1.part AND r.back = r2.part)
        END refint;|}
  in
  match p with
  | [ Surface.D_selector { s_pred = Surface.F_some (_, _, Surface.F_some _); _ } ]
    ->
    ()
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_errors () =
  let expect_error src =
    match Parser.parse src with
    | _ -> Alcotest.failf "expected Parse_error for %s" src
    | exception Parser.Parse_error _ -> ()
  in
  expect_error "TYPE t STRING;";
  expect_error "QUERY ;";
  expect_error
    "CONSTRUCTOR c FOR Rel: t (): t2; BEGIN EACH r IN Rel: TRUE END wrong;";
  expect_error "VAR x y;"

(* ------------------------------------------------------------------ *)
(* Elaboration and whole-program runs *)

let run src = snd (Elaborate.run_string src)

let test_run_transitive_closure () =
  let out =
    run
      {|TYPE node = STRING;
        TYPE edgerel = RELATION src, dst OF RECORD src, dst: node END;
        VAR Edge: edgerel;
        CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
        BEGIN EACH r IN Rel: TRUE,
              <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel{tc}:
                f.dst = b.src
        END tc;
        INSERT Edge VALUES ("a", "b"), ("b", "c"), ("c", "d");
        QUERY Edge{tc};|}
  in
  Alcotest.check Alcotest.bool "derived pair present" true
    (contains out {|"a"   | "d"|} || contains out {|"a" | "d"|});
  Alcotest.check Alcotest.bool "six tuples" true (contains out "(6 tuples)")

let test_run_key_constraint () =
  let src =
    {|TYPE t = RELATION id OF RECORD id: INTEGER; name: STRING END;
      VAR R: t;
      INSERT R VALUES (1, "a"), (1, "b");|}
  in
  match run src with
  | _ -> Alcotest.fail "expected Key_violation"
  | exception Relation.Key_violation _ -> ()

let test_run_selector_assignment () =
  let out =
    run
      {|TYPE e = RELATION src, dst OF RECORD src, dst: STRING END;
        VAR Edge: e;
        VAR Loops: e;
        SELECTOR no_loop FOR Rel: e;
        BEGIN EACH r IN Rel: r.src # r.dst END no_loop;
        INSERT Loops VALUES ("a", "b");
        Edge[no_loop] := Loops;
        QUERY Edge;|}
  in
  Alcotest.check Alcotest.bool "assignment went through" true
    (contains out "(1 tuple)")

let test_run_selector_assignment_rejected () =
  let src =
    {|TYPE e = RELATION src, dst OF RECORD src, dst: STRING END;
      VAR Edge: e;
      VAR Loops: e;
      SELECTOR no_loop FOR Rel: e;
      BEGIN EACH r IN Rel: r.src # r.dst END no_loop;
      INSERT Loops VALUES ("a", "a");
      Edge[no_loop] := Loops;|}
  in
  match run src with
  | _ -> Alcotest.fail "expected Selector_violation"
  | exception Selector.Selector_violation _ -> ()

let test_run_positivity_rejected () =
  let src =
    {|TYPE t = RELATION x OF RECORD x: STRING END;
      VAR R: t;
      CONSTRUCTOR nonsense FOR Rel: t (): t;
      BEGIN EACH r IN Rel: NOT (r IN Rel{nonsense}) END nonsense;|}
  in
  match run src with
  | _ -> Alcotest.fail "expected Database.Error"
  | exception Database.Error msg ->
    Alcotest.check Alcotest.bool "positivity message" true
      (contains msg "NOT/ALL")

let test_run_mutual_recursion () =
  let candidates =
    [
      "../examples/cad_scene.dbpl"; "examples/cad_scene.dbpl";
      "../../examples/cad_scene.dbpl"; "../../../examples/cad_scene.dbpl";
      "/root/repo/examples/cad_scene.dbpl";
    ]
  in
  let path =
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> Alcotest.fail "cad_scene.dbpl not found"
  in
  let src = In_channel.with_open_text path In_channel.input_all in
  let out = run src in
  Alcotest.check Alcotest.bool "ahead results" true (contains out "(11 tuples)");
  Alcotest.check Alcotest.bool "above results" true (contains out "(9 tuples)")

let test_run_explain () =
  let out =
    run
      {|TYPE e = RELATION src, dst OF RECORD src, dst: STRING END;
        VAR Edge: e;
        CONSTRUCTOR tc FOR Rel: e (): e;
        BEGIN EACH r IN Rel: TRUE,
              <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel{tc}: f.dst = b.src
        END tc;
        INSERT Edge VALUES ("a", "b");
        EXPLAIN {EACH r IN Edge{tc}: r.src = "a"};|}
  in
  Alcotest.check Alcotest.bool "chose the closure operator" true
    (contains out "method: closure operator");
  Alcotest.check Alcotest.bool "prints the quant graph" true
    (contains out "quant graph");
  let out =
    run
      ({|TYPE e = RELATION src, dst OF RECORD src, dst: STRING END;
         VAR Edge: e;
         INSERT Edge VALUES ("a", "b"), ("b", "c");|}
      ^ Oracle.even_paths_source
      ^ {|EXPLAIN {EACH r IN Edge{even}: r.src = "a"};|})
  in
  Alcotest.check Alcotest.bool "chose the capture rule" true
    (contains out "magic");
  Alcotest.check Alcotest.bool "prints the quant graph" true
    (contains out "quant graph")

let test_run_explain_analyze_and_metrics () =
  (* both directives sticky-enable collection: restore the configured
     state for the rest of this binary *)
  let saved = Dc_obs.Obs.on () in
  Fun.protect ~finally:(fun () -> Dc_obs.Obs.set_enabled saved) @@ fun () ->
  let out =
    run
      ({|TYPE e = RELATION src, dst OF RECORD src, dst: STRING END;
        VAR Edge: e;
        INSERT Edge VALUES ("a", "b"), ("b", "c"), ("c", "d");|}
      ^ Oracle.even_paths_source
      ^ {|EXPLAIN ANALYZE Edge{even};
        SHOW METRICS;|})
  in
  Alcotest.check Alcotest.bool "per-operator timings" true
    (contains out "time=");
  Alcotest.check Alcotest.bool "per-round fixpoint stats" true
    (contains out "fixpoint rounds:");
  Alcotest.check Alcotest.bool "round deltas shown" true
    (contains out "delta=");
  Alcotest.check Alcotest.bool "registry dumped as Prometheus text" true
    (contains out "# TYPE dc_fixpoint_rounds_total counter");
  Alcotest.check Alcotest.bool "trace totals folded into the registry" true
    (contains out "dc_operator_rows_total")

let test_run_arith_and_delete () =
  let out =
    run
      {|TYPE t = RELATION a, b OF RECORD a, b: INTEGER END;
        VAR R: t;
        INSERT R VALUES (1, 2), (3, 4);
        DELETE R VALUES (3, 4);
        QUERY {<r.a, r.b * 10> OF EACH r IN R: TRUE};|}
  in
  Alcotest.check Alcotest.bool "computed column" true (contains out "20");
  Alcotest.check Alcotest.bool "deletion applied" true (contains out "(1 tuple)")

(* ------------------------------------------------------------------ *)
(* Property: pretty-printing a calculus range and re-parsing it through
   the surface pipeline evaluates to the same relation (pp/parser
   agreement on the shared concrete syntax). *)

let roundtrip_db () =
  let db = Dc_core.Database.create () in
  let schema =
    Dc_relation.Schema.make [ ("src", Dc_relation.Value.TStr); ("dst", Dc_relation.Value.TStr) ]
  in
  Dc_core.Database.declare db "Edge" schema;
  Dc_core.Database.set db "Edge"
    (Dc_relation.Relation.of_pairs schema
       (List.map
          (fun (a, b) -> (Dc_relation.Value.Str a, Dc_relation.Value.Str b))
          [ ("a", "b"); ("b", "c"); ("c", "d"); ("b", "d") ]));
  Dc_core.Database.define_constructor db
    (Dc_core.Constructor.transitive_closure ());
  db

let arb_query =
  let open QCheck in
  let open Dc_calculus.Ast in
  let base_range = Gen.oneofl [ Rel "Edge"; Construct (Rel "Edge", "tc", []) ] in
  let const = Gen.map (fun c -> str (String.make 1 c)) (Gen.char_range 'a' 'd') in
  let term v = Gen.oneof [ Gen.oneofl [ field v "src"; field v "dst" ]; const ] in
  let cmp v =
    Gen.map3
      (fun op a b -> Cmp (op, a, b))
      (Gen.oneofl [ Eq; Ne; Lt; Le; Gt; Ge ])
      (term v) (term v)
  in
  let rec formula v n =
    if n = 0 then cmp v
    else
      Gen.oneof
        [
          cmp v;
          Gen.map (fun f -> Not f) (formula v (n - 1));
          Gen.map2 (fun a b -> And (a, b)) (formula v (n - 1)) (formula v (n - 1));
          Gen.map2 (fun a b -> Or (a, b)) (formula v (n - 1)) (formula v (n - 1));
          Gen.map2
            (fun r f -> Some_in ("q" ^ string_of_int n, r, f))
            base_range
            (formula ("q" ^ string_of_int n) (n - 1));
          Gen.map2
            (fun r f -> All_in ("q" ^ string_of_int n, r, f))
            base_range
            (formula ("q" ^ string_of_int n) (n - 1));
          Gen.map2 (fun a r -> Member ([ a; a ], r)) (term v) base_range;
        ]
  in
  let query =
    Gen.sized (fun n ->
        let n = min n 4 in
        Gen.oneof
          [
            base_range;
            Gen.map2
              (fun r f -> Comp [ branch [ ("v", r) ] ~where:f ])
              base_range (formula "v" n);
            Gen.map3
              (fun r1 r2 f ->
                Comp
                  [
                    branch
                      [ ("v", r1); ("w", r2) ]
                      ~target:[ field "v" "src"; field "w" "dst" ]
                      ~where:(conj (eq (field "v" "dst") (field "w" "src")) f);
                  ])
              base_range base_range (formula "w" (min n 2));
          ])
  in
  make query ~print:range_to_string

let prop_pp_parse_roundtrip =
  QCheck.Test.make ~name:"pp |> parse |> eval agrees" ~count:120 arb_query
    (fun q ->
      let db = roundtrip_db () in
      let direct = Dc_core.Database.query db q in
      let text = Dc_calculus.Ast.range_to_string q in
      let reparsed =
        Elaborate.lower_query
          (Elaborate.create db)
          (Parser.parse_range text)
      in
      Dc_relation.Relation.equal direct (Dc_core.Database.query db reparsed))

let test_parse_arith_precedence () =
  (* a + b * c parses as a + (b * c) *)
  let p =
    Parser.parse
      {|TYPE t = RELATION a OF RECORD a: INTEGER END;
        VAR R: t;
        QUERY {<r.a + r.a * 2> OF EACH r IN R: TRUE};|}
  in
  match List.nth p 2 with
  | Surface.D_query
      (Surface.R_comp
        [ { b_target = [ Surface.T_binop (Dc_calculus.Ast.Add, _, Surface.T_binop (Dc_calculus.Ast.Mul, _, _)) ]; _ } ])
    ->
    ()
  | _ -> Alcotest.fail "unexpected precedence parse"

let test_subtraction_left_assoc () =
  let out =
    run
      {|TYPE t = RELATION a OF RECORD a: INTEGER END;
        VAR R: t;
        INSERT R VALUES (10);
        QUERY {<r.a - 3 - 2> OF EACH r IN R: TRUE};|}
  in
  Alcotest.check Alcotest.bool "10 - 3 - 2 = 5" true (contains out "5")

let test_selector_with_relation_param () =
  (* the paper's refint selector: a relation-typed parameter *)
  let out =
    run
      {|TYPE part = STRING;
        TYPE objrel = RELATION p OF RECORD p: part END;
        TYPE erel = RELATION f, b OF RECORD f, b: part END;
        VAR Objects: objrel;
        VAR Infront: erel;
        VAR Staging: erel;
        SELECTOR refint (Obj: objrel) FOR Rel: erel;
        BEGIN EACH r IN Rel:
          SOME r1, r2 IN Obj (r.f = r1.p AND r.b = r2.p)
        END refint;
        INSERT Objects VALUES ("table"), ("chair");
        INSERT Staging VALUES ("table", "chair");
        Infront[refint(Objects)] := Staging;
        QUERY Infront;|}
  in
  Alcotest.check Alcotest.bool "guarded assignment with relation arg" true
    (contains out "(1 tuple)")

(* ------------------------------------------------------------------ *)
(* RANGE subtypes (paper §2.1: partidtype IS RANGE 1..100) *)

let with_temp_dir f =
  let dir = Filename.temp_file "dc_store" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)


(* Persist-and-reload through a durable data directory, the way
   [dbpl run p.dbpl --data DIR] followed by [dbpl run q.dbpl --data DIR]
   does: [src] runs against a fresh directory (data commits logged,
   catalog commits checkpointed), the directory is closed and reopened,
   and [f] sees the original and the recovered database.  Recovery
   re-elaborates the checkpoint's catalog image through the front end. *)
let with_reopened src f =
  with_temp_dir (fun dir ->
      let durable = Dc_wal.Durable.open_dir dir in
      let db, _ = Elaborate.run_string ~db:(Dc_wal.Durable.db durable) src in
      Dc_wal.Durable.close durable;
      let reopened = Dc_wal.Durable.open_dir dir in
      Fun.protect
        ~finally:(fun () -> Dc_wal.Durable.close reopened)
        (fun () -> f db (Dc_wal.Durable.db reopened)))


let test_range_subtype_accepts () =
  let out =
    run
      {|TYPE partidtype = RANGE 1..100;
        TYPE parts = RELATION id OF RECORD id: partidtype; name: STRING END;
        VAR Parts: parts;
        INSERT Parts VALUES (1, "axle"), (100, "frame");
        QUERY Parts;|}
  in
  Alcotest.check Alcotest.bool "in-range values accepted" true
    (contains out "(2 tuples)")

let test_range_subtype_rejects () =
  (* the generated §2.1 check: IF (1<=ix) AND (ix<=100) THEN ... ELSE
     <exception> *)
  let src =
    {|TYPE partidtype = RANGE 1..100;
      TYPE parts = RELATION id OF RECORD id: partidtype END;
      VAR Parts: parts;
      INSERT Parts VALUES (101);|}
  in
  match run src with
  | _ -> Alcotest.fail "expected Type_mismatch (domain violation)"
  | exception Relation.Type_mismatch msg ->
    Alcotest.check Alcotest.bool "names the refinement" true
      (contains msg "refinement")

let test_range_subtype_on_assignment () =
  (* computed values are re-checked when assigned at the refined type *)
  let src =
    {|TYPE small = RANGE 0..5;
      TYPE t = RELATION a, b OF RECORD a, b: small END;
      VAR R: t;
      INSERT R VALUES (2, 3);
      R := {<r.a, r.b * 2> OF EACH r IN R: TRUE};
      R := {<r.a, r.b * 2> OF EACH r IN R: TRUE};|}
  in
  match run src with
  | _ -> Alcotest.fail "expected Type_mismatch on the second doubling"
  | exception Relation.Type_mismatch _ -> ()

let test_range_inline_field () =
  let out =
    run
      {|TYPE t = RELATION a OF RECORD a: RANGE -5..5 END;
        VAR R: t;
        INSERT R VALUES (-5), (0), (5);
        QUERY R;|}
  in
  Alcotest.check Alcotest.bool "negative bounds parse" true
    (contains out "(3 tuples)")

let test_range_storage_roundtrip () =
  with_reopened
    {|TYPE partid = RANGE 1..100;
      TYPE parts = RELATION id OF RECORD id: partid; name: STRING END;
      VAR Parts: parts;
      INSERT Parts VALUES (7, "nut");|}
    (fun _ db2 ->
      (* the refinement survived: inserting out of range still fails *)
      match
        Database.insert db2 "Parts"
          (Tuple.make2 (Value.Int 500) (Value.Str "bad"))
      with
      | _ -> Alcotest.fail "refinement lost in the catalog roundtrip"
      | exception Relation.Type_mismatch _ -> ())

(* ------------------------------------------------------------------ *)
(* Persistence: close -> reopen of a data directory re-validates
   everything *)

let test_storage_roundtrip () =
  let q =
    Dc_calculus.Ast.(
      Construct (Rel "Infront", "ahead", [ Arg_range (Rel "Ontop") ]))
  in
  with_reopened
    {|TYPE part = STRING;
        TYPE infrontrel = RELATION front, back OF RECORD front, back: part END;
        TYPE ontoprel = RELATION top, base OF RECORD top, base: part END;
        TYPE aheadrel = RELATION head, tail OF RECORD head, tail: part END;
        TYPE aboverel = RELATION high, low OF RECORD high, low: part END;
        VAR Infront: infrontrel;
        VAR Ontop: ontoprel;
        SELECTOR hidden_by (Obj: part) FOR Rel: infrontrel;
        BEGIN EACH r IN Rel: r.front = Obj END hidden_by;
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
        INSERT Infront VALUES ("lamp", "vase"), ("table", "chair");
        INSERT Ontop VALUES ("vase", "table");|}
    (fun db db2 ->
      let before = Database.query db q in
      (* relations, definitions, and semantics all survive *)
      Alcotest.check
        (Alcotest.testable Relation.pp Relation.equal)
        "query agrees after reload" before (Database.query db2 q);
      Alcotest.check
        (Alcotest.testable Relation.pp Relation.equal)
        "data survives"
        (Database.get db "Infront")
        (Database.get db2 "Infront");
      Alcotest.check Alcotest.bool "selector survives" true
        (Database.selector db2 "hidden_by" <> None))

let test_storage_selector_with_rel_param () =
  (* the refint pattern: a selector with a relation-typed parameter must
     survive the catalog roundtrip *)
  with_reopened
    {|TYPE part = STRING;
        TYPE objrel = RELATION p OF RECORD p: part END;
        TYPE erel = RELATION f, b OF RECORD f, b: part END;
        VAR Objects: objrel;
        VAR Infront: erel;
        SELECTOR refint (Obj: objrel) FOR Rel: erel;
        BEGIN EACH r IN Rel:
          SOME r1, r2 IN Obj (r.f = r1.p AND r.b = r2.p)
        END refint;
        INSERT Objects VALUES ("table"), ("chair");
        INSERT Infront VALUES ("table", "chair");|}
    (fun _ db2 ->
      let selected =
        Database.query db2
          Dc_calculus.Ast.(
            Select (Rel "Infront", "refint", [ Arg_range (Rel "Objects") ]))
      in
      Alcotest.check Alcotest.int "selector with relation parameter works" 1
        (Relation.cardinal selected))

let test_storage_rejects_corrupt () =
  with_temp_dir (fun dir ->
      let durable = Dc_wal.Durable.open_dir dir in
      let db, _ =
        Elaborate.run_string ~db:(Dc_wal.Durable.db durable)
          {|TYPE t = RELATION id OF RECORD id: INTEGER; v: STRING END;
            VAR R: t;
            INSERT R VALUES (1, "x");|}
      in
      let version = Database.version db in
      Dc_wal.Durable.close durable;
      (* forge a log record that collides on the key: replay goes through
         the commit path, which must re-validate it *)
      let wal, _ = Dc_wal.Wal.load (Filename.concat dir "wal.log") in
      ignore
        (Dc_wal.Wal.append wal ~version:(version + 1)
           ~changes:
             [ ("R", [ Tuple.make2 (Value.Int 1) (Value.Str "y") ], []) ]);
      Dc_wal.Wal.close wal;
      match Dc_wal.Durable.open_dir dir with
      | _ -> Alcotest.fail "expected Key_violation on reopen"
      | exception Relation.Key_violation _ -> ())

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dc_lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "strings" `Quick test_lexer_strings;
          Alcotest.test_case "huge integer literal" `Quick test_lexer_huge_integer;
          Alcotest.test_case "keyword spellings distinct" `Quick test_keywords_distinct;
        ]
        @ qcheck [ prop_keyword_table; prop_shape_keys ] );
      ( "parser",
        [
          Alcotest.test_case "range applications" `Quick test_parse_range;
          Alcotest.test_case "comprehension" `Quick test_parse_comprehension;
          Alcotest.test_case "multi-branch" `Quick test_parse_multibranch;
          Alcotest.test_case "quantifiers" `Quick test_parse_quantifiers;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "programs",
        [
          Alcotest.test_case "transitive closure" `Quick
            test_run_transitive_closure;
          Alcotest.test_case "key constraint" `Quick test_run_key_constraint;
          Alcotest.test_case "selector assignment ok" `Quick
            test_run_selector_assignment;
          Alcotest.test_case "selector assignment rejected" `Quick
            test_run_selector_assignment_rejected;
          Alcotest.test_case "positivity rejected" `Quick
            test_run_positivity_rejected;
          Alcotest.test_case "cad scene (mutual recursion)" `Quick
            test_run_mutual_recursion;
          Alcotest.test_case "explain" `Quick test_run_explain;
          Alcotest.test_case "explain analyze + show metrics" `Quick
            test_run_explain_analyze_and_metrics;
          Alcotest.test_case "arith + delete" `Quick test_run_arith_and_delete;
          Alcotest.test_case "arith precedence" `Quick
            test_parse_arith_precedence;
          Alcotest.test_case "subtraction left-assoc" `Quick
            test_subtraction_left_assoc;
          Alcotest.test_case "selector with relation param" `Quick
            test_selector_with_relation_param;
        ] );
      ( "range-subtypes (2.1)",
        [
          Alcotest.test_case "accepts in-range" `Quick
            test_range_subtype_accepts;
          Alcotest.test_case "rejects out-of-range" `Quick
            test_range_subtype_rejects;
          Alcotest.test_case "re-checked on assignment" `Quick
            test_range_subtype_on_assignment;
          Alcotest.test_case "inline field, negative bounds" `Quick
            test_range_inline_field;
          Alcotest.test_case "survives the catalog" `Quick
            test_range_storage_roundtrip;
        ] );
      ( "storage",
        [
          Alcotest.test_case "save/load roundtrip" `Quick
            test_storage_roundtrip;
          Alcotest.test_case "selector with relation param" `Quick
            test_storage_selector_with_rel_param;
          Alcotest.test_case "reload re-validates" `Quick
            test_storage_rejects_corrupt;
        ] );
      ("properties", qcheck [ prop_pp_parse_roundtrip ]);
    ]
