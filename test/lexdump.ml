(* One block per source: its text, then one line per token with its
   position, or the Lex_error it raised. Floats print in hex, so a
   block pins each number's exact bits. *)

module L = Interp.Lexer

let token_text = function
  | L.Tnum f -> Printf.sprintf "num %h" f
  | L.Tstr s -> Printf.sprintf "str %S" s
  | L.Tident s -> "ident " ^ s
  | L.Tkeyword s -> "kw " ^ s
  | L.Tpunct s -> "punct " ^ s
  | L.Teof -> "eof"

let render_source src =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "source %S\n" src;
  (match L.tokenize src with
  | toks ->
      List.iter
        (fun { L.token; line; col } ->
          Printf.bprintf buf "%d:%d %s\n" line col (token_text token))
        toks
  | exception L.Lex_error (msg, line, col) ->
      Printf.bprintf buf "%d:%d error %S\n" line col msg);
  Buffer.contents buf

let sources_of_dump text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if String.starts_with ~prefix:"source " line then
           Some (Scanf.sscanf line "source %S%!" Fun.id)
         else None)
