(** Lexer for the DBPL surface language: MODULA-2 style nested comments
    [(* ... *)], double-quoted strings with backslash escapes, integers,
    reals, case-sensitive identifiers (keywords upper case, as in the
    paper's listings). *)

exception Lex_error of string
(** Message includes [line:col]. *)

val tokenize : string -> Token.located list
(** Whole input to tokens, ending with {!Token.Eof}. @raise Lex_error *)

val fold :
  string ->
  init:'a ->
  ('a -> Token.t -> int -> int -> int -> int -> 'a) ->
  'a
(** [fold src ~init f] runs the lexer over [src], calling
    [f acc tok line col start stop] for every token in order and ending
    with {!Token.Eof}; [src.[start .. stop - 1]] is the token's source
    text.  {!tokenize} and the statement-shape scan ({!Shape}) are both
    folds, so they agree on comments, escapes and keywords.
    @raise Lex_error *)
