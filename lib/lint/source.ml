(* Loaded sources and the violations every pass reports against them.

   Reading, comment-lexing and parsing one file is the bulk of a lint
   run's wall time, and every pass needs the identical products — so a
   tree is loaded once into [t]s that all passes share ([seusslint --pass
   all] parses each file exactly once). *)

type violation = {
  file : string;  (** repo-relative path *)
  line : int;
  col : int;
  rule : string;
  message : string;
}

let compare_violation a b =
  compare (a.file, a.line, a.col, a.rule) (b.file, b.line, b.col, b.rule)

let violation file line col rule message = { file; line; col; rule; message }

let at file (loc : Location.t) rule message =
  let p = loc.loc_start in
  violation file p.Lexing.pos_lnum (p.Lexing.pos_cnum - p.Lexing.pos_bol) rule
    message

type t = {
  rel : string;
  comments : (string * Location.t) list;
  ast : (Parsetree.structure, exn) result;
}

let rel_of_path path =
  (* Strip any leading ./ and ../ so "lib/..." classification works when
     the checker runs from a build sandbox. *)
  let rec strip = function
    | ("." | "..") :: rest -> strip rest
    | parts -> parts
  in
  String.concat "/" (strip (String.split_on_char '/' path))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lexbuf_of text path =
  Lexer.init ();
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf path;
  lexbuf

let gather_comments text path =
  let lexbuf = lexbuf_of text path in
  (try
     let rec drain () =
       match Lexer.token lexbuf with Parser.EOF -> () | _ -> drain ()
     in
     drain ()
   with _ -> ());
  Lexer.comments ()

let load ?rel path =
  let rel = match rel with Some r -> r | None -> rel_of_path path in
  let text = read_file path in
  let comments = gather_comments text path in
  let ast =
    match Parse.implementation (lexbuf_of text path) with
    | ast -> Ok ast
    | exception exn -> Error exn
  in
  { rel; comments; ast }

(* Build output and dot-directories are never scanned. *)
let skipped entry =
  String.equal entry "_build" || String.starts_with ~prefix:"." entry

(* Every [.ml] under [root], sorted, skipping [_build] and dot-directories;
   a root that is itself an [.ml] file is its own only source. A root that
   cannot be read raises [Sys_error] naming it, so a mistyped root can
   never lint "clean". *)
let rec files root =
  if not (Sys.file_exists root) then
    raise (Sys_error (root ^ ": no such file or directory"))
  else if not (Sys.is_directory root) then
    if Filename.check_suffix root ".ml" then [ root ]
    else raise (Sys_error (root ^ ": not a directory or .ml file"))
  else
    let entries = Sys.readdir root in
    Array.sort String.compare entries;
    List.concat_map
      (fun entry ->
        let path = Filename.concat root entry in
        if Sys.is_directory path then if skipped entry then [] else files path
        else if Filename.check_suffix entry ".ml" then [ path ]
        else [])
      (Array.to_list entries)

(* Every directory [files] walks under [root], [root] included; none
   for a file root. *)
let rec walked root =
  if not (Sys.file_exists root && Sys.is_directory root) then []
  else
    root
    :: List.concat_map
         (fun entry ->
           let path = Filename.concat root entry in
           if Sys.is_directory path && not (skipped entry) then walked path
           else [])
         (Array.to_list (Sys.readdir root))

(* Drop a leading [prefix] (itself normalized of ./ and ../) from [rel],
   so a fixture tree like test/lint_fixtures/lib/... classifies as
   lib/... — lets the lib-only rules fire on known-bad fixtures. *)
let strip_rel_prefix ~prefix rel =
  let prefix = rel_of_path prefix in
  let prefix =
    if prefix <> "" && prefix.[String.length prefix - 1] <> '/' then
      prefix ^ "/"
    else prefix
  in
  let n = String.length prefix in
  if prefix <> "" && String.starts_with ~prefix rel then
    String.sub rel n (String.length rel - n)
  else rel

let rel_of ?strip_prefix path =
  let rel = rel_of_path path in
  match strip_prefix with
  | None -> rel
  | Some prefix -> strip_rel_prefix ~prefix rel

let load_tree ?strip_prefix roots =
  (* Resolve every root before reading any file: a bad root fails fast. *)
  List.concat_map files roots
  |> List.map (fun f -> load ~rel:(rel_of ?strip_prefix f) f)

let scanned_dirs ?strip_prefix roots =
  List.concat_map walked roots |> List.map (rel_of ?strip_prefix)
