(* Statement shapes: the key of the server's statement cache.

   A shape is a statement's token stream with some literals lifted out.
   A literal is lifted when it is the whole operand of [=] opposite a
   field [v.a] ([v.a = lit] or [lit = v.a], with no arithmetic operator
   on either side): there the column fixes the comparison's type, so a
   parameter of the literal's type types exactly as the literal did, and
   a form cached under the shape never changes a statement's typing.
   Every other literal stays in the key.

   The key writes every token in order — its source text for keywords,
   identifiers and punctuation, a kind byte for each literal — and then
   the values of the literals that stayed.  Lifting is decided from
   token classes alone, so the kinds fix which literals stayed, and two
   statements have equal keys iff their token streams are equal except
   for the values of lifted literals.

   The scan is a fold of the one lexer ({!Lexer.fold}); on the cache's
   hit path it builds no token list. *)

open Dc_relation

type t = {
  key : string;
  values : Value.t list; (* lifted literals, in source order *)
}

let param i = "$" ^ string_of_int i

let params sh = List.mapi (fun i v -> (param i, Value.type_of v)) sh.values

(* Token classes the lifting rule looks at. *)
let c_other = 0
let c_op = 1
let c_dot = 2
let c_eq = 3
let c_ident = 4
let c_lit = 5

let class_of = function
  | Token.Plus | Token.Minus | Token.Star -> c_op
  | Token.Dot -> c_dot
  | Token.Eq -> c_eq
  | Token.Ident _ -> c_ident
  | Token.Int_lit _ | Token.Float_lit _ | Token.String_lit _ -> c_lit
  | _ -> c_other

(* The last four classes read [v . a =], packed three bits each. *)
let field_eq = (c_ident lsl 9) lor (c_dot lsl 6) lor (c_ident lsl 3) lor c_eq

type scan = {
  src : string;
  buf : Buffer.t;
  mutable hist : int; (* classes of the last five tokens, newest lowest *)
  mutable pending : int;
      (* the undecided literal: 0 none, 1 just read, k in 2..5 when the
         k - 1 tokens after it are the first k - 1 of [= v . a] *)
  mutable after_field : bool; (* the pending literal follows [v.a =] *)
  mutable lit : Token.t;
  mutable lit_index : int;
  mutable index : int;
  mutable values : Value.t list; (* lifted, newest first *)
  mutable kept : Token.t list; (* literals left in the key, newest first *)
  mutable lifted_at : int list; (* token indices of lifted literals *)
}

let value_of = function
  | Token.Int_lit i -> Value.Int i
  | Token.Float_lit f -> Value.Float f
  | Token.String_lit s -> Value.str s
  | _ -> invalid_arg "Shape.value_of"

let lift sc =
  sc.values <- value_of sc.lit :: sc.values;
  sc.lifted_at <- sc.lit_index :: sc.lifted_at;
  sc.pending <- 0

let keep sc =
  sc.kept <- sc.lit :: sc.kept;
  sc.pending <- 0

(* Decide or advance the pending literal on the class [c] of the next
   token. *)
let step sc c =
  match sc.pending with
  | 0 -> ()
  | 1 ->
    if sc.after_field && c <> c_op && c <> c_dot then lift sc
    else if c = c_eq then sc.pending <- 2
    else keep sc
  | 2 -> if c = c_ident then sc.pending <- 3 else keep sc
  | 3 -> if c = c_dot then sc.pending <- 4 else keep sc
  | 4 -> if c = c_ident then sc.pending <- 5 else keep sc
  | _ -> if c <> c_op && c <> c_dot then lift sc else keep sc

let token sc tok start stop =
  let c = class_of tok in
  step sc c;
  if c = c_lit then begin
    (* a literal after an operator is part of an arithmetic term *)
    let prev = sc.hist land 7 in
    if prev <> c_op then begin
      sc.pending <- 1;
      sc.after_field <-
        sc.hist land 0o7777 = field_eq && (sc.hist lsr 12) land 7 <> c_op;
      sc.lit <- tok;
      sc.lit_index <- sc.index
    end
    else sc.kept <- tok :: sc.kept;
    Buffer.add_char sc.buf '\001';
    Buffer.add_char sc.buf
      (match tok with
      | Token.Int_lit _ -> 'i'
      | Token.Float_lit _ -> 'f'
      | _ -> 's')
  end
  else begin
    Buffer.add_substring sc.buf sc.src start (stop - start);
    Buffer.add_char sc.buf '\000'
  end;
  sc.hist <- ((sc.hist lsl 3) lor c) land 0o77777;
  sc.index <- sc.index + 1

let add_kept buf = function
  | Token.Int_lit i ->
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf ';'
  | Token.Float_lit f -> Printf.bprintf buf "%h;" f
  | Token.String_lit s ->
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  | _ -> ()

let run src ~init f =
  let sc =
    {
      src;
      buf = Buffer.create 64;
      hist = 0;
      pending = 0;
      after_field = false;
      lit = Token.Eof;
      lit_index = 0;
      index = 0;
      values = [];
      kept = [];
      lifted_at = [];
    }
  in
  let acc =
    Lexer.fold src ~init (fun acc tok line col start stop ->
        token sc tok start stop;
        f acc tok line col)
  in
  List.iter (add_kept sc.buf) (List.rev sc.kept);
  ({ key = Buffer.contents sc.buf; values = List.rev sc.values }, sc, acc)

let scan src =
  let sh, _, () = run src ~init:() (fun () _ _ _ -> ()) in
  sh

let scan_tokens src =
  let sh, sc, rev =
    run src ~init:[] (fun acc tok line col -> { Token.tok; line; col } :: acc)
  in
  let tokens = List.rev rev in
  let lifted = List.rev sc.lifted_at in
  let shaped =
    let rec go i k lifted = function
      | [] -> []
      | (t : Token.located) :: rest -> (
        match lifted with
        | j :: lifted' when j = i ->
          { t with Token.tok = Token.Ident (param k) } :: go (i + 1) (k + 1) lifted' rest
        | _ -> t :: go (i + 1) k lifted rest)
    in
    go 0 0 lifted tokens
  in
  (sh, tokens, shaped)
