type token =
  | Tnum of float
  | Tstr of string
  | Tident of string
  | Tkeyword of string
  | Tpunct of string
  | Teof

type located = { token : token; line : int; col : int }

exception Lex_error of string * int * int

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
let is_ident_char c = is_ident_start c || is_digit c

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

(* Lookahead without a [char option]: [more st off] says whether a
   character is there, [at st off] reads it. Any byte can occur in the
   source, so no character can stand for the end. *)
let more st off = st.pos + off < String.length st.src
let at st off = String.get st.src (st.pos + off)
let peek_is st off c = more st off && Char.equal (at st off) c
let digit_at st off = more st off && is_digit (at st off)

let advance st =
  if more st 0 then
    if Char.equal (at st 0) '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1;
  st.pos <- st.pos + 1

let error st msg = raise (Lex_error (msg, st.line, st.col))

let rec skip_trivia st =
  if more st 0 then
    match at st 0 with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_trivia st
    | '/' when peek_is st 1 '/' ->
        while more st 0 && not (Char.equal (at st 0) '\n') do
          advance st
        done;
        skip_trivia st
    | '/' when peek_is st 1 '*' ->
        advance st;
        advance st;
        let rec close () =
          if not (more st 0) then error st "unterminated comment"
          else if Char.equal (at st 0) '*' && peek_is st 1 '/' then begin
            advance st;
            advance st
          end
          else begin
            advance st;
            close ()
          end
        in
        close ();
        skip_trivia st
    | _ -> ()

let lex_number st =
  let start = st.pos in
  while digit_at st 0 do
    advance st
  done;
  if peek_is st 0 '.' && digit_at st 1 then begin
    advance st;
    while digit_at st 0 do
      advance st
    done
  end;
  let text = String.sub st.src start (st.pos - start) in
  Tnum (float_of_string text)

let lex_string st quote =
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    if not (more st 0) then error st "unterminated string"
    else
      let c = at st 0 in
      if Char.equal c quote then advance st
      else if Char.equal c '\\' then begin
        advance st;
        if not (more st 0) then error st "unterminated string";
        (match at st 0 with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | ('\\' | '"' | '\'') as c -> Buffer.add_char buf c
        | c -> error st (Printf.sprintf "bad escape '\\%c'" c));
        advance st;
        go ()
      end
      else begin
        Buffer.add_char buf c;
        advance st;
        go ()
      end
  in
  go ();
  Tstr (Buffer.contents buf)

let lex_ident st =
  let start = st.pos in
  while more st 0 && is_ident_char (at st 0) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match text with
  | "let" | "var" | "function" | "return" | "if" | "else" | "while" | "for"
  | "true" | "false" | "null" | "break" | "continue" ->
      Tkeyword text
  | _ -> Tident text

let punct1 st p =
  advance st;
  Tpunct p

let punct2 st p =
  advance st;
  advance st;
  Tpunct p

(* A two-character operator wins over its one-character prefix. *)
let lex_punct st =
  match at st 0 with
  | '=' when peek_is st 1 '=' -> punct2 st "=="
  | '!' when peek_is st 1 '=' -> punct2 st "!="
  | '<' when peek_is st 1 '=' -> punct2 st "<="
  | '>' when peek_is st 1 '=' -> punct2 st ">="
  | '&' when peek_is st 1 '&' -> punct2 st "&&"
  | '|' when peek_is st 1 '|' -> punct2 st "||"
  | '+' when peek_is st 1 '=' -> punct2 st "+="
  | '-' when peek_is st 1 '=' -> punct2 st "-="
  | '(' -> punct1 st "("
  | ')' -> punct1 st ")"
  | '{' -> punct1 st "{"
  | '}' -> punct1 st "}"
  | '[' -> punct1 st "["
  | ']' -> punct1 st "]"
  | ',' -> punct1 st ","
  | ';' -> punct1 st ";"
  | ':' -> punct1 st ":"
  | '.' -> punct1 st "."
  | '=' -> punct1 st "="
  | '+' -> punct1 st "+"
  | '-' -> punct1 st "-"
  | '*' -> punct1 st "*"
  | '/' -> punct1 st "/"
  | '%' -> punct1 st "%"
  | '<' -> punct1 st "<"
  | '>' -> punct1 st ">"
  | '!' -> punct1 st "!"
  | '?' -> punct1 st "?"
  | c -> error st (Printf.sprintf "unexpected character %C" c)

let tokenize src =
  let st = { src; pos = 0; line = 1; col = 1 } in
  let rec go acc =
    skip_trivia st;
    let line = st.line and col = st.col in
    if not (more st 0) then List.rev ({ token = Teof; line; col } :: acc)
    else
      let c = at st 0 in
      let token =
        if is_digit c then lex_number st
        else if Char.equal c '"' || Char.equal c '\'' then lex_string st c
        else if is_ident_start c then lex_ident st
        else lex_punct st
      in
      go ({ token; line; col } :: acc)
  in
  go []
