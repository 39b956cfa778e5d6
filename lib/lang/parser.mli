(** Recursive-descent parser for the DBPL surface language (the concrete
    syntax of the paper's listings plus a small command layer — see
    [examples/cad_scene.dbpl] and the README grammar tour). *)

exception Parse_error of string
(** Message includes [line:col] and the offending token. *)

val parse : string -> Surface.program
(** Parse a whole program. @raise Parse_error / Lexer.Lex_error *)

val parse_tokens : Token.located list -> Surface.program
(** Parse a token stream ending with {!Token.Eof} (as {!Lexer.tokenize}
    returns it). @raise Parse_error *)

val parse_range : string -> Surface.range
(** Parse a single range expression (must consume all input). *)
