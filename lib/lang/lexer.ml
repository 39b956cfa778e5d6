(* Hand-written lexer for the DBPL surface language.

   Supports MODULA-2 style nested comments [(* ... *)], double-quoted
   string literals with backslash escapes, integers, reals, identifiers
   (case-sensitive; keywords are upper case as in the paper).

   The lexer is one state machine, [fold], that hands each token to a
   callback: [tokenize] collects them into a list for the parser, and
   {!Shape} reads them straight into a statement-cache key. *)

exception Lex_error of string

let lex_error line col fmt =
  Fmt.kstr (fun s -> raise (Lex_error (Fmt.str "%d:%d: %s" line col s))) fmt

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable line_start : int; (* position of the current line's first byte *)
}

let col st = st.pos - st.line_start + 1

(* [peek]/[peek2] read ['\000'] past the end; code that must tell the
   end from a NUL byte asks [eof]. *)
let eof st = st.pos >= String.length st.src

let peek st =
  if st.pos < String.length st.src then String.unsafe_get st.src st.pos
  else '\000'

let peek2 st =
  if st.pos + 1 < String.length st.src then
    String.unsafe_get st.src (st.pos + 1)
  else '\000'

let advance st =
  if peek st = '\n' then begin
    st.line <- st.line + 1;
    st.line_start <- st.pos + 1
  end;
  st.pos <- st.pos + 1

(* [advance] over a byte known not to be a newline *)
let bump st = st.pos <- st.pos + 1

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let rec skip_comment st depth start_line start_col =
  if eof st then lex_error start_line start_col "unterminated comment"
  else
    match peek st, peek2 st with
    | '*', ')' ->
      advance st;
      advance st;
      if depth > 1 then skip_comment st (depth - 1) start_line start_col
    | '(', '*' ->
      advance st;
      advance st;
      skip_comment st (depth + 1) start_line start_col
    | _ ->
      advance st;
      skip_comment st depth start_line start_col

let lex_string st =
  let line = st.line and col = col st in
  bump st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec loop () =
    if eof st then lex_error line col "unterminated string literal"
    else
      match peek st with
      | '"' -> advance st
      | '\\' ->
        advance st;
        if eof st then lex_error line col "unterminated escape";
        Buffer.add_char buf
          (match peek st with 'n' -> '\n' | 't' -> '\t' | c -> c);
        advance st;
        loop ()
      | c ->
        Buffer.add_char buf c;
        advance st;
        loop ()
  in
  loop ();
  Buffer.contents buf

let lex_number st line col =
  let start = st.pos in
  while is_digit (peek st) do
    bump st
  done;
  if peek st = '.' && is_digit (peek2 st) then begin
    bump st;
    while is_digit (peek st) do
      bump st
    done;
    Token.Float_lit (float_of_string (String.sub st.src start (st.pos - start)))
  end
  else
    match int_of_string_opt (String.sub st.src start (st.pos - start)) with
    | Some i -> Token.Int_lit i
    | None -> lex_error line col "integer literal out of range"

(* Keyword lookup: a table built once from [Token.keywords] (read-only
   afterwards, so sessions on any domain share it), consulted only for
   words whose first character starts some keyword. *)
module Words = Hashtbl.Make (String)

let keyword_table =
  let t = Words.create 64 in
  List.iter (fun (s, kw) -> Words.replace t s kw) Token.keywords;
  t

let keyword_start =
  let a = Array.make 256 false in
  List.iter (fun (s, _) -> a.(Char.code s.[0]) <- true) Token.keywords;
  a

let lex_ident st =
  let start = st.pos in
  while is_ident_char (peek st) do
    bump st
  done;
  let s = String.sub st.src start (st.pos - start) in
  if Array.unsafe_get keyword_start (Char.code s.[0]) then
    match Words.find_opt keyword_table s with
    | Some kw -> kw
    | None -> Token.Ident s
  else Token.Ident s

(* Whitespace and comments before the next token. *)
let rec skip_blanks st =
  match peek st with
  | ' ' | '\t' | '\r' | '\n' ->
    advance st;
    skip_blanks st
  | '(' when peek2 st = '*' ->
    let line = st.line and col = col st in
    bump st;
    bump st;
    skip_comment st 1 line col;
    skip_blanks st
  | _ -> ()

let two st tok =
  bump st;
  bump st;
  tok

(* The token at the cursor (after [skip_blanks]); [Token.Eof] at the end. *)
let lex_token st line col =
  if eof st then Token.Eof
  else
    match peek st with
    | '"' -> Token.String_lit (lex_string st)
    | c when is_digit c -> lex_number st line col
    | c when is_ident_start c -> lex_ident st
    | ':' when peek2 st = '=' -> two st Token.Assign
    | '<' when peek2 st = '=' -> two st Token.Le
    | '>' when peek2 st = '=' -> two st Token.Ge
    | c ->
      let tok =
        match c with
        | ';' -> Token.Semi
        | ':' -> Token.Colon
        | ',' -> Token.Comma
        | '.' -> Token.Dot
        | '(' -> Token.Lparen
        | ')' -> Token.Rparen
        | '[' -> Token.Lbracket
        | ']' -> Token.Rbracket
        | '{' -> Token.Lbrace
        | '}' -> Token.Rbrace
        | '<' -> Token.Lt
        | '>' -> Token.Gt
        | '=' -> Token.Eq
        | '#' -> Token.Ne
        | '+' -> Token.Plus
        | '-' -> Token.Minus
        | '*' -> Token.Star
        | c -> lex_error line col "unexpected character %c" c
      in
      bump st;
      tok

(* [f acc tok line col start stop] for every token in order, ending with
   [Token.Eof]; [src.[start .. stop - 1]] is the token's source text. *)
let fold src ~init f =
  let st = { src; pos = 0; line = 1; line_start = 0 } in
  let rec loop acc =
    skip_blanks st;
    let line = st.line and col = col st and start = st.pos in
    match lex_token st line col with
    | Token.Eof -> f acc Token.Eof line col start start
    | tok -> loop (f acc tok line col start st.pos)
  in
  loop init

let tokenize src =
  List.rev
    (fold src ~init:[] (fun acc tok line col _ _ ->
         { Token.tok; line; col } :: acc))
