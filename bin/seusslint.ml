(* The seusslint driver — determinism and resource-safety linter.

   Runs every rule of Lint.Check over every .ml under the given roots
   (default: lib bin; a root may also be a single .ml file).
   --list-rules prints the rules and how to suppress them.

   Exits 1 if any unsuppressed violation remains and 2 if a root cannot
   be read. --json swaps the human report for one JSON object per line
   (file, line, col, rule, message), for CI problem matchers and
   tooling. *)

let list_rules () =
  print_endline
    "seusslint rules (suppress with (* seusslint: allow <rule> — <reason> *)):";
  List.iter
    (fun r ->
      Printf.printf "  %-16s %s\n" (Lint.Rules.name r) (Lint.Rules.describe r))
    Lint.Rules.all;
  print_endline "seusslint meta-rules (not suppressible):";
  Printf.printf "  %-16s reported for malformed or unknown allow comments\n"
    Lint.Rules.bad_allow;
  Printf.printf "  %-16s reported for allow comments that suppress nothing\n"
    Lint.Rules.unused_allow

(* Minimal JSON string escaping: the report fields are ASCII paths and
   rule prose, but messages may carry quotes or em dashes. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let () =
  let roots = ref [] in
  let list = ref false in
  let strip = ref "" in
  let json = ref false in
  let spec =
    [
      ("--list-rules", Arg.Set list, " Print the rule catalogue and exit");
      ( "--json",
        Arg.Set json,
        " Emit one JSON object per violation instead of the human report" );
      ( "--strip-prefix",
        Arg.Set_string strip,
        "PREFIX Drop PREFIX from paths before rule classification (so a \
         fixture tree like test/lint_fixtures/lib is linted as lib/)" );
    ]
  in
  Arg.parse (Arg.align spec)
    (fun dir -> roots := dir :: !roots)
    "seusslint [--list-rules] [--json] [--strip-prefix PREFIX] [ROOT ...]   \
     (default roots: lib bin)";
  if !list then begin
    list_rules ();
    exit 0
  end;
  let roots = match List.rev !roots with [] -> [ "lib"; "bin" ] | rs -> rs in
  let strip_prefix = match !strip with "" -> None | p -> Some p in
  let violations =
    try Lint.Check.check_tree ?strip_prefix roots
    with Sys_error msg ->
      Printf.eprintf "seusslint: %s\n" msg;
      exit 2
  in
  List.iter
    (fun (v : Lint.Source.violation) ->
      if !json then
        Printf.printf
          "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"message\":\"%s\"}\n"
          (json_escape v.file) v.line v.col (json_escape v.rule)
          (json_escape v.message)
      else
        Printf.printf "%s:%d:%d: [%s] %s\n" v.file v.line v.col v.rule
          v.message)
    violations;
  match violations with
  | [] ->
      if not !json then
        Printf.printf "seusslint: clean (%s)\n" (String.concat " " roots);
      exit 0
  | vs ->
      if not !json then
        Printf.printf "seusslint: %d violation(s)\n" (List.length vs);
      exit 1
