(* Recursive-descent parser for the DBPL surface language.

   The concrete syntax follows the paper's listings:

     TYPE infrontrel = RELATION front, back OF RECORD front, back: parttype END;
     VAR Infront: infrontrel;
     SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
     BEGIN EACH r IN Rel: r.front = Obj END hidden_by;
     CONSTRUCTOR ahead FOR Rel: infrontrel (Ontop: ontoprel): aheadrel;
     BEGIN EACH r IN Rel: TRUE,
           <r.front, ah.tail> OF EACH r IN Rel, EACH ah IN Rel{ahead(Ontop)}:
             r.back = ah.head
     END ahead;

   plus a small command layer: INSERT/DELETE ... VALUES, assignment
   (Rel := range, Rel[sel(args)] := range), QUERY, PRINT, EXPLAIN. *)

open Surface

exception Parse_error of string

type state = {
  tokens : Token.located array;
  mutable cursor : int;
}

let error st fmt =
  let { Token.tok; line; col } = st.tokens.(st.cursor) in
  Fmt.kstr
    (fun s ->
      raise
        (Parse_error (Fmt.str "%d:%d: %s (at '%s')" line col s (Token.to_string tok))))
    fmt

let peek st = st.tokens.(st.cursor).Token.tok

let peek2 st =
  if st.cursor + 1 < Array.length st.tokens then
    st.tokens.(st.cursor + 1).Token.tok
  else Token.Eof

let advance st = st.cursor <- st.cursor + 1

let eat st tok =
  if peek st = tok then advance st
  else error st "expected '%s'" (Token.to_string tok)

let accept st tok =
  if peek st = tok then begin
    advance st;
    true
  end
  else false

let ident st =
  match peek st with
  | Token.Ident s ->
    advance st;
    s
  | _ -> error st "expected an identifier"

(* ------------------------------------------------------------------ *)
(* Types *)

let int_literal st =
  let neg = accept st Token.Minus in
  match peek st with
  | Token.Int_lit i ->
    advance st;
    if neg then -i else i
  | _ -> error st "expected an integer literal"

let scalar_type st =
  match peek st with
  | Token.Kw_range ->
    (* RANGE lo..hi — the 2.1 refined integer subtype *)
    advance st;
    let lo = int_literal st in
    eat st Token.Dot;
    eat st Token.Dot;
    let hi = int_literal st in
    if lo > hi then error st "empty RANGE %d..%d" lo hi;
    S_range (lo, hi)
  | Token.Kw_integer ->
    advance st;
    S_integer
  | Token.Kw_string ->
    advance st;
    S_string
  | Token.Kw_boolean ->
    advance st;
    S_boolean
  | Token.Kw_real ->
    advance st;
    S_real
  | Token.Ident s ->
    advance st;
    S_named s
  | _ -> error st "expected a type"

let ident_list st =
  let rec loop acc =
    let id = ident st in
    if accept st Token.Comma then loop (id :: acc) else List.rev (id :: acc)
  in
  loop []

(* RELATION [key attrs] OF RECORD fields END [KEY attrs] *)
let relation_type st =
  eat st Token.Kw_relation;
  let key_front =
    match peek st with
    | Token.Kw_of -> []
    | _ -> ident_list st
  in
  eat st Token.Kw_of;
  eat st Token.Kw_record;
  let rec fields acc =
    let names = ident_list st in
    eat st Token.Colon;
    let ty = scalar_type st in
    let acc = (names, ty) :: acc in
    if accept st Token.Semi then
      match peek st with
      | Token.Kw_end -> List.rev acc
      | _ -> fields acc
    else List.rev acc
  in
  let fs = fields [] in
  eat st Token.Kw_end;
  let key_back = if accept st Token.Kw_key then ident_list st else [] in
  T_relation { key = key_front @ key_back; fields = fs }

let type_expr st =
  match peek st with
  | Token.Kw_relation -> relation_type st
  | _ -> T_scalar (scalar_type st)

(* (name: type; name: type) *)
let params st =
  if accept st Token.Lparen then begin
    if accept st Token.Rparen then []
    else begin
      let rec loop acc =
        let p_name = ident st in
        eat st Token.Colon;
        let p_type = scalar_type st in
        let acc = { p_name; p_type } :: acc in
        if accept st Token.Semi || accept st Token.Comma then loop acc
        else begin
          eat st Token.Rparen;
          List.rev acc
        end
      in
      loop []
    end
  end
  else []

(* ------------------------------------------------------------------ *)
(* Terms *)

let rec term st =
  (* left-associative: 10 - 3 - 2 = (10 - 3) - 2 *)
  let rec loop lhs =
    match peek st with
    | Token.Plus ->
      advance st;
      loop (T_binop (Dc_calculus.Ast.Add, lhs, term_factor st))
    | Token.Minus ->
      advance st;
      loop (T_binop (Dc_calculus.Ast.Sub, lhs, term_factor st))
    | _ -> lhs
  in
  loop (term_factor st)

and term_factor st =
  let rec loop lhs =
    match peek st with
    | Token.Star ->
      advance st;
      loop (T_binop (Dc_calculus.Ast.Mul, lhs, term_primary st))
    | _ -> lhs
  in
  loop (term_primary st)

and term_primary st =
  match peek st with
  | Token.Int_lit i ->
    advance st;
    T_int i
  | Token.Float_lit f ->
    advance st;
    T_float f
  | Token.String_lit s ->
    advance st;
    T_string s
  | Token.Minus ->
    advance st;
    (match term_primary st with
    | T_int i -> T_int (-i)
    | T_float f -> T_float (-.f)
    | _ -> error st "expected a numeric literal after unary minus")
  | Token.Lparen ->
    advance st;
    let t = term st in
    eat st Token.Rparen;
    t
  | Token.Ident v when peek2 st = Token.Dot ->
    advance st;
    advance st;
    let a = ident st in
    T_field (v, a)
  | Token.Ident v ->
    advance st;
    T_name v
  | _ -> error st "expected a term"

(* ------------------------------------------------------------------ *)
(* Ranges *)

let rec range st =
  let base =
    match peek st with
    | Token.Ident n ->
      advance st;
      R_name n
    | Token.Lbrace ->
      advance st;
      let bs = branches st in
      eat st Token.Rbrace;
      R_comp bs
    | _ -> error st "expected a relation name or a comprehension"
  in
  range_suffixes st base

and range_suffixes st base =
  match peek st with
  | Token.Lbracket ->
    advance st;
    let s = ident st in
    let args = arg_list st in
    eat st Token.Rbracket;
    range_suffixes st (R_select (base, s, args))
  | Token.Lbrace -> (
    (* '{' starts a constructor application suffix only when followed by an
       identifier; '{EACH'/'{<' would be a (non-suffix) comprehension and
       cannot appear in suffix position. *)
    match peek2 st with
    | Token.Ident _ ->
      advance st;
      let c = ident st in
      let args = arg_list st in
      eat st Token.Rbrace;
      range_suffixes st (R_construct (base, c, args))
    | _ -> base)
  | _ -> base

and arg_list st =
  if accept st Token.Lparen then begin
    if accept st Token.Rparen then []
    else begin
      let rec loop acc =
        let a =
          match peek st with
          | Token.Ident n
            when peek2 st = Token.Comma || peek2 st = Token.Rparen
                 || peek2 st = Token.Lbrace || peek2 st = Token.Lbracket -> (
            (* a bare name (possibly with application suffixes): could be a
               relation or a scalar parameter — elaboration decides *)
            match peek2 st with
            | Token.Lbrace | Token.Lbracket ->
              advance st;
              A_range (range_suffixes st (R_name n))
            | _ ->
              advance st;
              A_name n)
          | _ -> A_term (term st)
        in
        let acc = a :: acc in
        if accept st Token.Comma then loop acc
        else begin
          eat st Token.Rparen;
          List.rev acc
        end
      in
      loop []
    end
  end
  else []

(* ------------------------------------------------------------------ *)
(* Formulas *)

and formula st =
  let lhs = formula_and st in
  if accept st Token.Kw_or then F_or (lhs, formula st) else lhs

and formula_and st =
  let lhs = formula_atom st in
  if accept st Token.Kw_and then F_and (lhs, formula_and st) else lhs

and formula_atom st =
  match peek st with
  | Token.Kw_true ->
    advance st;
    F_true
  | Token.Kw_false ->
    advance st;
    F_false
  | Token.Kw_not ->
    advance st;
    F_not (formula_atom st)
  | Token.Kw_some | Token.Kw_all ->
    let universal = peek st = Token.Kw_all in
    advance st;
    let vars = ident_list st in
    eat st Token.Kw_in;
    let r = range st in
    eat st Token.Lparen;
    let body = formula st in
    eat st Token.Rparen;
    let mk v acc = if universal then F_all (v, r, acc) else F_some (v, r, acc) in
    List.fold_right mk vars body
  | Token.Lparen ->
    advance st;
    let f = formula st in
    eat st Token.Rparen;
    f
  | Token.Lt ->
    (* <t1, ..., tk> IN range *)
    advance st;
    let rec terms acc =
      let t = term st in
      if accept st Token.Comma then terms (t :: acc) else List.rev (t :: acc)
    in
    let ts = terms [] in
    eat st Token.Gt;
    eat st Token.Kw_in;
    F_member (ts, range st)
  | Token.Ident v when peek2 st = Token.Kw_in ->
    (* r IN range *)
    advance st;
    advance st;
    F_in (v, range st)
  | _ -> (
    let lhs = term st in
    let op =
      match peek st with
      | Token.Eq -> Dc_calculus.Ast.Eq
      | Token.Ne -> Dc_calculus.Ast.Ne
      | Token.Lt -> Dc_calculus.Ast.Lt
      | Token.Le -> Dc_calculus.Ast.Le
      | Token.Gt -> Dc_calculus.Ast.Gt
      | Token.Ge -> Dc_calculus.Ast.Ge
      | _ -> error st "expected a comparison operator"
    in
    advance st;
    F_cmp (op, lhs, term st))

(* ------------------------------------------------------------------ *)
(* Branches *)

and branch st =
  (* MIN/MAX/COUNT/SUM are contextual keywords: they prefix a target term
     only when followed by something that starts a term (so [MIN.w] is
     still a field of a variable named MIN, and [<MIN>] a bare name). *)
  let agg = ref None in
  let starts_term = function
    | Token.Ident _ | Token.Int_lit _ | Token.Float_lit _
    | Token.String_lit _ | Token.Lparen | Token.Minus ->
      true
    | _ -> false
  in
  let target =
    if peek st = Token.Lt then begin
      advance st;
      let rec terms i acc =
        (match peek st with
        | Token.Ident s when starts_term (peek2 st) -> (
          match Dc_agg.Agg.op_of_name s with
          | Some op ->
            if !agg <> None then
              error st "at most one aggregated target term per branch";
            advance st;
            agg := Some (op, i)
          | None -> ())
        | _ -> ());
        let t = term st in
        if accept st Token.Comma then terms (i + 1) (t :: acc)
        else List.rev (t :: acc)
      in
      let ts = terms 0 [] in
      eat st Token.Gt;
      eat st Token.Kw_of;
      ts
    end
    else []
  in
  let rec binders acc =
    eat st Token.Kw_each;
    let v = ident st in
    eat st Token.Kw_in;
    let r = range st in
    let acc = (v, r) :: acc in
    if peek st = Token.Comma && peek2 st = Token.Kw_each then begin
      advance st;
      binders acc
    end
    else List.rev acc
  in
  let bs = binders [] in
  eat st Token.Colon;
  let where = formula st in
  (* GROUP BY t1, t2 — the term list stops at a comma that begins the
     next branch (EACH ... or <...> OF ...). *)
  let group =
    match (peek st, peek2 st) with
    | Token.Ident "GROUP", Token.Ident "BY" ->
      advance st;
      advance st;
      let rec terms acc =
        let t = term st in
        let acc = t :: acc in
        match (peek st, peek2 st) with
        | Token.Comma, (Token.Kw_each | Token.Lt) -> List.rev acc
        | Token.Comma, _ ->
          advance st;
          terms acc
        | _ -> List.rev acc
      in
      terms []
    | _ -> []
  in
  if !agg = None && group <> [] then
    error st "GROUP BY needs an aggregated (MIN/MAX/COUNT/SUM) target term";
  { b_target = target; b_agg = !agg; b_group = group; b_binders = bs; b_where = where }

and branches st =
  let rec loop acc =
    let b = branch st in
    if accept st Token.Comma then loop (b :: acc) else List.rev (b :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Declarations and statements *)

let tuple_literals st =
  let rec tuples acc =
    eat st Token.Lparen;
    let rec terms acc' =
      let t = term st in
      if accept st Token.Comma then terms (t :: acc') else List.rev (t :: acc')
    in
    let row = terms [] in
    eat st Token.Rparen;
    let acc = row :: acc in
    if accept st Token.Comma then tuples acc else List.rev acc
  in
  tuples []

let decl st =
  match peek st with
  | Token.Kw_type ->
    advance st;
    let name = ident st in
    eat st Token.Eq;
    let ty = type_expr st in
    eat st Token.Semi;
    D_type (name, ty)
  | Token.Kw_var ->
    advance st;
    let name = ident st in
    eat st Token.Colon;
    let tyname = ident st in
    eat st Token.Semi;
    D_var (name, tyname)
  | Token.Kw_selector ->
    advance st;
    let s_name = ident st in
    let s_params = params st in
    eat st Token.Kw_for;
    let s_formal = ident st in
    eat st Token.Colon;
    let s_formal_type = ident st in
    eat st Token.Semi;
    eat st Token.Kw_begin;
    eat st Token.Kw_each;
    let s_var = ident st in
    eat st Token.Kw_in;
    let s_range = ident st in
    eat st Token.Colon;
    let s_pred = formula st in
    eat st Token.Kw_end;
    let closing = ident st in
    if not (String.equal closing s_name) then
      error st "END %s does not match SELECTOR %s" closing s_name;
    eat st Token.Semi;
    D_selector { s_name; s_params; s_formal; s_formal_type; s_var; s_range; s_pred }
  | Token.Kw_constructor ->
    advance st;
    let c_name = ident st in
    eat st Token.Kw_for;
    let c_formal = ident st in
    eat st Token.Colon;
    let c_formal_type = ident st in
    let c_params = params st in
    eat st Token.Colon;
    let c_result_type = ident st in
    eat st Token.Semi;
    eat st Token.Kw_begin;
    let c_body = branches st in
    eat st Token.Kw_end;
    let closing = ident st in
    if not (String.equal closing c_name) then
      error st "END %s does not match CONSTRUCTOR %s" closing c_name;
    eat st Token.Semi;
    D_constructor { c_name; c_formal; c_formal_type; c_params; c_result_type; c_body }
  | Token.Kw_insert ->
    advance st;
    let name = ident st in
    eat st Token.Kw_values;
    let rows = tuple_literals st in
    eat st Token.Semi;
    D_insert (name, rows)
  | Token.Kw_delete ->
    advance st;
    let name = ident st in
    eat st Token.Kw_values;
    let rows = tuple_literals st in
    eat st Token.Semi;
    D_delete (name, rows)
  | Token.Kw_query ->
    advance st;
    let r = range st in
    eat st Token.Semi;
    D_query r
  | Token.Kw_print ->
    advance st;
    let r = range st in
    eat st Token.Semi;
    D_print r
  | Token.Kw_explain -> (
    advance st;
    let analyze = accept st Token.Kw_analyze in
    match peek st with
    | Token.Kw_insert | Token.Kw_delete ->
      (* EXPLAIN [ANALYZE] INSERT/DELETE Rel VALUES (..): run the update
         and show the view-maintenance pipeline *)
      let eu_delete = peek st = Token.Kw_delete in
      advance st;
      let eu_rel = ident st in
      eat st Token.Kw_values;
      let eu_rows = tuple_literals st in
      eat st Token.Semi;
      D_explain_update { eu_analyze = analyze; eu_delete; eu_rel; eu_rows }
    | _ ->
      let r = range st in
      eat st Token.Semi;
      if analyze then D_explain_analyze r else D_explain r)
  | Token.Kw_materialize ->
    advance st;
    let r = range st in
    eat st Token.Semi;
    D_materialize r
  | Token.Kw_show -> (
    advance st;
    match peek st with
    | Token.Kw_snapshot ->
      advance st;
      eat st Token.Semi;
      D_show_snapshot
    | _ ->
      eat st Token.Kw_metrics;
      eat st Token.Semi;
      D_show_metrics)
  | Token.Kw_begin when peek2 st = Token.Semi ->
    (* BEGIN; — a read-only snapshot transaction (BEGIN inside
       selector/constructor declarations is always followed by more) *)
    advance st;
    eat st Token.Semi;
    D_begin
  | Token.Kw_commit ->
    advance st;
    eat st Token.Semi;
    D_commit
  | Token.Kw_set when peek2 st = Token.Ident "MAINTAIN" ->
    (* SET MAINTAIN ON | OFF *)
    advance st;
    advance st;
    let on =
      match ident st with
      | "ON" -> true
      | "OFF" -> false
      | s -> error st "expected ON or OFF, got %s" s
    in
    eat st Token.Semi;
    D_maintain on
  | Token.Kw_set when peek2 st = Token.Ident "PARALLEL" ->
    (* SET PARALLEL n | DEFAULT *)
    advance st;
    advance st;
    let d =
      match peek st with
      | Token.Ident "DEFAULT" ->
        advance st;
        None
      | _ ->
        let n = int_literal st in
        if n < 1 then error st "parallel degree must be at least 1";
        Some n
    in
    eat st Token.Semi;
    D_parallel d
  | Token.Kw_set ->
    (* SET LIMIT ROWS n, ROUNDS n, MILLIS n;   or   SET LIMIT NONE; *)
    advance st;
    eat st Token.Kw_limit;
    let kind st =
      match ident st with
      | "ROWS" -> L_rows
      | "ROUNDS" -> L_rounds
      | "MILLIS" -> L_millis
      | k -> error st "expected ROWS, ROUNDS, MILLIS or NONE, got %s" k
    in
    let items =
      match peek st with
      | Token.Ident "NONE" ->
        advance st;
        []
      | _ ->
        let rec loop acc =
          let k = kind st in
          let n = int_literal st in
          if n < 0 then error st "limit value must be non-negative";
          let acc = (k, n) :: acc in
          if accept st Token.Comma then loop acc else List.rev acc
        in
        loop []
    in
    eat st Token.Semi;
    D_limit items
  | Token.Ident _ -> (
    let name = ident st in
    match peek st with
    | Token.Assign ->
      advance st;
      let r = range st in
      eat st Token.Semi;
      D_assign (name, None, [], r)
    | Token.Lbracket ->
      advance st;
      let sel = ident st in
      let args = arg_list st in
      eat st Token.Rbracket;
      eat st Token.Assign;
      let r = range st in
      eat st Token.Semi;
      D_assign (name, Some sel, args, r)
    | _ -> error st "expected ':=' or '[' after identifier")
  | _ -> error st "expected a declaration or statement"

let program st =
  let rec loop acc =
    if peek st = Token.Eof then List.rev acc else loop (decl st :: acc)
  in
  loop []

let parse_tokens tokens = program { tokens = Array.of_list tokens; cursor = 0 }

let parse src = parse_tokens (Lexer.tokenize src)

let parse_range src =
  let tokens = Array.of_list (Lexer.tokenize src) in
  let st = { tokens; cursor = 0 } in
  let r = range st in
  if peek st <> Token.Eof then error st "trailing input after range";
  r
