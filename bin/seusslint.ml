(* The seusslint driver — determinism, resource-safety, hot-path and
   ownership linter.

   Runs over every .ml under the given roots (default: lib bin; a root
   may also be a single .ml file), one pass of the table in Lint.Passes
   selected with --pass (default: the first), or all of them over one
   shared parse with --pass all — each file is read, its comments lexed
   and its AST built exactly once. --list-rules prints every pass's
   rules and how to suppress them; --time reports the load/analysis
   split on stderr.

   Exits 1 if any unsuppressed violation remains and 2 if a root cannot
   be read. --json swaps the human report for one JSON object per line
   (file, line, col, rule, pass, message), for CI problem matchers and
   tooling. *)

let passes = Lint.Passes.all
let default_pass = (List.hd passes).Lint.Pass.name

let list_rules () =
  List.iter
    (fun (p : Lint.Pass.t) ->
      Printf.printf "seusslint rules (%s pass%s):\n" p.name
        (if p.name = default_pass then " (default)"
         else ", --pass " ^ p.name);
      List.iter
        (fun r ->
          (* The [pass] column is load-bearing: CI matchers and docs
             key the suppression syntax off it. *)
          Printf.printf "  %-22s [%s] %s\n" (Lint.Rules.name r) p.name
            (Lint.Rules.describe r))
        p.rules)
    passes;
  print_endline "seusslint meta-rules (any pass, not suppressible):";
  Printf.printf "  %-22s [meta] reported for malformed/unknown allow \
                 comments or markers\n"
    Lint.Rules.bad_allow;
  Printf.printf "  %-22s [meta] reported for allow comments or markers \
                 that suppress nothing\n"
    Lint.Rules.unused_allow;
  Printf.printf
    "  %-22s [meta] reported when a suffix-2 name resolves into two files\n"
    Lint.Rules.ambiguous_resolve

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

(* The pass a violation belongs to: the enforcing pass for catalogued
   rules, the producing pass for the checker's own diagnostics. *)
let pass_of_violation (produced_by : Lint.Pass.t)
    (v : Lint.Source.violation) =
  match Lint.Rules.of_name v.rule with
  | Some r -> Lint.Passes.pass_of r
  | None -> produced_by.name

let timed time label f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  if time then
    Printf.eprintf "seusslint: %-12s %6.1f ms\n%!" label
      ((Unix.gettimeofday () -. t0) *. 1e3);
  v

let () =
  let roots = ref [] in
  let list = ref false in
  let strip = ref "" in
  let pass = ref default_pass in
  let json = ref false in
  let time = ref false in
  let names =
    List.map (fun (p : Lint.Pass.t) -> p.name) passes @ [ "all" ]
  in
  let spec =
    [
      ("--list-rules", Arg.Set list, " Print the rule catalogue and exit");
      ( "--pass",
        Arg.Symbol (names, fun p -> pass := p),
        Printf.sprintf
          " Which pass to run (default %s), or all (every pass over one \
           shared parse); --list-rules shows what each enforces"
          default_pass );
      ( "--json",
        Arg.Set json,
        " Emit one JSON object per violation instead of the human report" );
      ( "--time",
        Arg.Set time,
        " Report load (read+lex+parse) and per-pass analysis wall time on \
         stderr" );
      ( "--strip-prefix",
        Arg.Set_string strip,
        "PREFIX Drop PREFIX from paths before rule classification (so a \
         fixture tree like test/lint_fixtures/lib is linted as lib/)" );
    ]
  in
  Arg.parse (Arg.align spec)
    (fun dir -> roots := dir :: !roots)
    (Printf.sprintf
       "seusslint [--list-rules] [--pass %s] [--json] [--time] \
        [--strip-prefix PREFIX] [ROOT ...]   (default roots: lib bin)"
       (String.concat "|" names));
  if !list then begin
    list_rules ();
    exit 0
  end;
  let roots = match List.rev !roots with [] -> [ "lib"; "bin" ] | rs -> rs in
  let strip_prefix = match !strip with "" -> None | p -> Some p in
  let sources =
    try
      timed !time "load" (fun () -> Lint.Source.load_tree ?strip_prefix roots)
    with Sys_error msg ->
      Printf.eprintf "seusslint: %s\n" msg;
      exit 2
  in
  let prog = Lint.Passes.program sources in
  let selected =
    List.filter
      (fun (p : Lint.Pass.t) -> !pass = "all" || p.name = !pass)
      passes
  in
  let violations =
    Lint.Passes.merge
      (List.map
         (fun (p : Lint.Pass.t) ->
           (p, timed !time p.name (fun () -> Lint.Passes.check prog p)))
         selected)
  in
  List.iter
    (fun (produced_by, (v : Lint.Source.violation)) ->
      if !json then
        Printf.printf
          "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"pass\":\"%s\",\"message\":\"%s\"}\n"
          (json_escape v.file) v.line v.col (json_escape v.rule)
          (json_escape (pass_of_violation produced_by v))
          (json_escape v.message)
      else
        Printf.printf "%s:%d:%d: [%s] %s\n" v.file v.line v.col v.rule
          v.message)
    violations;
  match violations with
  | [] ->
      if not !json then
        Printf.printf "seusslint: clean (%s, %s pass)\n"
          (String.concat " " roots) !pass;
      exit 0
  | vs ->
      if not !json then
        Printf.printf "seusslint: %d violation(s)\n" (List.length vs);
      exit 1
