(** Statement shapes: the key of the server's statement cache.

    A shape is a statement's token stream with the literals lifted out
    whose type a column fixes: the literal operand of [v.a = lit] or
    [lit = v.a], with no arithmetic operator on either side.  Every other
    literal stays in the key.  Two statements have equal {!key}s iff
    their token streams are equal except for the values of lifted
    literals (an integer, a real and a string literal never share a
    key). *)

open Dc_relation

type t = {
  key : string;
  values : Value.t list;
      (** the lifted literals' values in source order (strings interned
          by {!Value.str}, as the parser's literals are) *)
}

val scan : string -> t
(** The statement's shape, read by one pass of {!Lexer.fold}; builds no
    token list.  @raise Lexer.Lex_error as {!Lexer.tokenize} does *)

val scan_tokens : string -> t * Token.located list * Token.located list
(** {!scan}, plus the statement's tokens and the same tokens with each
    lifted literal replaced by the identifier that names its parameter
    in {!params} (a name no source identifier can spell). *)

val params : t -> (string * Value.ty) list
(** Parameter names and types of the lifted literals, in order. *)
