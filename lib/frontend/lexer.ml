(** Hand-written lexer for the mini-C dialect. *)

type token =
  | INT of int
  | FLOAT of float
  | IDENT of string
  | KW_int | KW_float | KW_void | KW_for | KW_if | KW_else
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA
  | PLUS | MINUS | STAR | SLASH
  | LT | LE | GT | GE | EQEQ | NEQ
  | ANDAND | OROR | BANG
  | ASSIGN | PLUSEQ | MINUSEQ | STAREQ
  | PLUSPLUS
  | EOF

(** All lexical failures raise the located {!Frontend.Error} with
    [phase = Lex]; there is no lexer-private exception. *)

let pp_token ppf = function
  | INT i -> Fmt.pf ppf "%d" i
  | FLOAT f -> Fmt.pf ppf "%g" f
  | IDENT s -> Fmt.string ppf s
  | KW_int -> Fmt.string ppf "int"
  | KW_float -> Fmt.string ppf "float"
  | KW_void -> Fmt.string ppf "void"
  | KW_for -> Fmt.string ppf "for"
  | KW_if -> Fmt.string ppf "if"
  | KW_else -> Fmt.string ppf "else"
  | LPAREN -> Fmt.string ppf "(" | RPAREN -> Fmt.string ppf ")"
  | LBRACE -> Fmt.string ppf "{" | RBRACE -> Fmt.string ppf "}"
  | LBRACKET -> Fmt.string ppf "[" | RBRACKET -> Fmt.string ppf "]"
  | SEMI -> Fmt.string ppf ";" | COMMA -> Fmt.string ppf ","
  | PLUS -> Fmt.string ppf "+" | MINUS -> Fmt.string ppf "-"
  | STAR -> Fmt.string ppf "*" | SLASH -> Fmt.string ppf "/"
  | LT -> Fmt.string ppf "<" | LE -> Fmt.string ppf "<="
  | GT -> Fmt.string ppf ">" | GE -> Fmt.string ppf ">="
  | EQEQ -> Fmt.string ppf "==" | NEQ -> Fmt.string ppf "!="
  | ANDAND -> Fmt.string ppf "&&" | OROR -> Fmt.string ppf "||"
  | BANG -> Fmt.string ppf "!"
  | ASSIGN -> Fmt.string ppf "="
  | PLUSEQ -> Fmt.string ppf "+=" | MINUSEQ -> Fmt.string ppf "-="
  | STAREQ -> Fmt.string ppf "*="
  | PLUSPLUS -> Fmt.string ppf "++"
  | EOF -> Fmt.string ppf "<eof>"

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let keyword = function
  | "int" -> Some KW_int
  | "float" -> Some KW_float
  | "void" -> Some KW_void
  | "for" -> Some KW_for
  | "if" -> Some KW_if
  | "else" -> Some KW_else
  | _ -> None

(** Tokenize a full source string into (token, byte offset) pairs;
    raises {!Frontend.Error} on bad input. *)
let tokenize_offsets src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let emit ~start t = toks := (t, start) :: !toks in
  let fail ~at ?token fmt =
    Fmt.kstr
      (fun message ->
        raise
          (Frontend.Error
             {
               Frontend.phase = Frontend.Lex;
               loc = Some (Frontend.loc_of_pos src at);
               token;
               message;
             }))
      fmt
  in
  while !i < n do
    let c = src.[!i] in
    let start = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '/' && peek 1 = Some '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && peek 1 = Some '*' then begin
      i := !i + 2;
      let closed = ref false in
      while !i + 1 < n && not !closed do
        if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done;
      if not !closed then fail ~at:start "unterminated comment"
    end
    else if is_digit c || (c = '.' && (match peek 1 with Some d -> is_digit d | None -> false))
    then begin
      let has_dot = ref false in
      while
        !i < n
        && (is_digit src.[!i]
           || (src.[!i] = '.' && not !has_dot)
           || src.[!i] = 'e'
           || (src.[!i] = '-' && !i > start && src.[!i - 1] = 'e'))
      do
        if src.[!i] = '.' then has_dot := true;
        if src.[!i] = 'e' then has_dot := true;
        incr i
      done;
      let text = String.sub src start (!i - start) in
      if !has_dot then
        match float_of_string_opt text with
        | Some f -> emit ~start (FLOAT f)
        | None -> fail ~at:start ~token:text "bad float literal"
      else begin
        match int_of_string_opt text with
        | Some v -> emit ~start (INT v)
        | None -> fail ~at:start ~token:text "bad int literal"
      end
    end
    else if is_alpha c then begin
      while !i < n && (is_alpha src.[!i] || is_digit src.[!i]) do incr i done;
      let text = String.sub src start (!i - start) in
      emit ~start (match keyword text with Some k -> k | None -> IDENT text)
    end
    else begin
      let two a b t =
        if c = a && peek 1 = Some b then begin
          emit ~start t;
          i := !i + 2;
          true
        end
        else false
      in
      if
        two '<' '=' LE || two '>' '=' GE || two '=' '=' EQEQ
        || two '!' '=' NEQ || two '&' '&' ANDAND || two '|' '|' OROR
        || two '+' '=' PLUSEQ || two '-' '=' MINUSEQ || two '*' '=' STAREQ
        || two '+' '+' PLUSPLUS
      then ()
      else begin
        let t =
          match c with
          | '(' -> LPAREN | ')' -> RPAREN
          | '{' -> LBRACE | '}' -> RBRACE
          | '[' -> LBRACKET | ']' -> RBRACKET
          | ';' -> SEMI | ',' -> COMMA
          | '+' -> PLUS | '-' -> MINUS | '*' -> STAR | '/' -> SLASH
          | '<' -> LT | '>' -> GT | '=' -> ASSIGN | '!' -> BANG
          | c -> fail ~at:start ~token:(String.make 1 c) "unexpected character"
        in
        emit ~start t;
        incr i
      end
    end
  done;
  emit ~start:n EOF;
  List.rev !toks

(** Tokenize into (token, source position) pairs.  Token offsets only
    grow, so one walk over the source, counting lines as it goes, gives
    every position: the same as {!Frontend.loc_of_pos} at each offset,
    in linear time.  Raises {!Frontend.Error} on bad input. *)
let tokenize_located src =
  let line = ref 1 and bol = ref 0 and pos = ref 0 in
  let locate (t, start) =
    while !pos < start do
      if src.[!pos] = '\n' then begin
        incr line;
        bol := !pos + 1
      end;
      incr pos
    done;
    (t, { Frontend.line = !line; column = start - !bol + 1 })
  in
  (* [rev_map] applies [locate] from the first token on. *)
  List.rev (List.rev_map locate (tokenize_offsets src))

(** Token stream without positions (the parser uses the located one). *)
let tokenize src = List.map fst (tokenize_offsets src)
