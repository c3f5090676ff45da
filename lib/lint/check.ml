(* The seusslint checker: parse one source with compiler-libs, walk the
   Parsetree for rule hits, then reconcile them against the file's
   `seusslint: allow` comments. No typing pass — every rule is decidable
   (conservatively) on names alone, which keeps the linter dependency-free
   and fast enough to run on every build. *)

type violation = {
  file : string;  (** repo-relative path *)
  line : int;
  col : int;
  rule : string;
  message : string;
}

let compare_violation a b =
  compare (a.file, a.line, a.col, a.rule) (b.file, b.line, b.col, b.rule)

(* {1 Allow comments}

   [(* seusslint: allow <rule> — <reason> *)] suppresses hits of <rule>
   on the comment's own line(s) or the line immediately after it. The
   rule id must exist, the reason must be non-empty, and every allowance
   must suppress at least one hit — anything else is itself reported. *)

type allow = {
  a_rule : Rules.id;
  a_first : int;  (** first source line the allowance covers *)
  a_last : int;  (** last source line the allowance covers *)
  a_line : int;  (** where the comment itself starts, for reporting *)
  mutable a_used : bool;
}

let marker = "seusslint:"

(* Split a comment into (verb, payload) after [marker]; [None] when the
   comment is not marker-directed at all. Shared with the deadlock pass,
   which reads its own marker ("seussdead:") and more verbs than
   "allow". *)
let parse_directive ~marker text =
  let trimmed = String.trim text in
  let starred =
    (* Doc comments reach us with a leading '*'. *)
    if String.length trimmed > 0 && trimmed.[0] = '*' then
      String.trim (String.sub trimmed 1 (String.length trimmed - 1))
    else trimmed
  in
  let mlen = String.length marker in
  if String.length starred < mlen || String.sub starred 0 mlen <> marker then
    None
  else
    let rest =
      String.trim (String.sub starred mlen (String.length starred - mlen))
    in
    match String.index_opt rest ' ' with
    | None -> Some (rest, "")
    | Some i ->
        Some
          ( String.sub rest 0 i,
            String.trim (String.sub rest (i + 1) (String.length rest - i - 1))
          )

(* Split an allow payload "<rule> <sep> <reason>" into the rule id and
   the reason with its leading separator ("—", "--" or "-") stripped. *)
let split_allow_payload after =
  let rule_id, reason =
    match String.index_opt after ' ' with
    | None -> (after, "")
    | Some j ->
        ( String.sub after 0 j,
          String.trim (String.sub after (j + 1) (String.length after - j - 1))
        )
  in
  let reason =
    let try_strip prefix s =
      let pl = String.length prefix in
      if String.length s >= pl && String.sub s 0 pl = prefix then
        Some (String.trim (String.sub s pl (String.length s - pl)))
      else None
    in
    match
      List.find_map (fun p -> try_strip p reason) [ "\xe2\x80\x94"; "--"; "-" ]
    with
    | Some stripped -> stripped
    | None -> reason
  in
  (rule_id, reason)

let parse_allow_text text =
  match parse_directive ~marker text with
  | None -> None
  | Some ("allow", payload) when payload <> "" ->
      let rule_id, reason = split_allow_payload payload in
      Some (`Allow (rule_id, reason))
  | Some _ -> Some `Malformed

(* {1 The Parsetree walk} *)

type ctx = {
  rel : string;  (** repo-relative path, for site lookups and reports *)
  in_lib : bool;
  random_exempt : bool;
  env_exempt : bool;
  mutable binding : string;  (** enclosing top-level binding name *)
  mutable hits : violation list;
}

let rel_of_path path =
  (* Strip any leading ./ and ../ so "lib/..." classification works when
     the checker runs from a build sandbox. *)
  let parts = String.split_on_char '/' path in
  let rec strip = function
    | ("." | "..") :: rest -> strip rest
    | parts -> parts
  in
  String.concat "/" (strip parts)

let first_segment rel =
  match String.index_opt rel '/' with
  | None -> rel
  | Some i -> String.sub rel 0 i

let prefixed ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let make_ctx rel =
  {
    rel;
    in_lib = String.equal (first_segment rel) "lib";
    random_exempt =
      (* The seeded PRNG itself, and the fault plane that owns its own
         deterministic streams, are the two sanctioned homes for
         randomness plumbing. *)
      String.equal rel "lib/sim/prng.ml" || prefixed ~prefix:"lib/faults/" rel;
    (* The run configuration is the one sanctioned environment reader. *)
    env_exempt = String.equal rel "lib/experiments/run_config.ml";
    binding = "<toplevel>";
    hits = [];
  }

let report ctx (loc : Location.t) rule message =
  let p = loc.loc_start in
  ctx.hits <-
    {
      file = ctx.rel;
      line = p.Lexing.pos_lnum;
      col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
      rule = Rules.name rule;
      message;
    }
    :: ctx.hits

let stdout_printers =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_char"; "print_float"; "print_bytes";
  ]

let check_ident ctx loc parts =
  (match parts with
  | "Random" :: _ :: _ when not ctx.random_exempt ->
      report ctx loc Rules.Bare_random
        (Printf.sprintf "%s draws from ambient global state; use a seeded Sim.Prng stream"
           (String.concat "." parts))
  | _ -> ());
  (match parts with
  | [ "Unix"; "gettimeofday" ] | [ "Sys"; "time" ] ->
      if ctx.in_lib then
        report ctx loc Rules.Wallclock
          (Printf.sprintf "%s reads the host clock; simulated code must use Sim.Engine.now"
             (String.concat "." parts))
  | _ -> ());
  (match parts with
  | [ "Hashtbl"; ("iter" | "fold") ] ->
      if ctx.in_lib then
        report ctx loc Rules.Hashtbl_order
          (Printf.sprintf
             "%s visits buckets in insertion-history order; use the sorted Det.%s wrapper"
             (String.concat "." parts)
             (List.nth parts 1))
  | _ -> ());
  (match parts with
  | [ "Sys"; ("getenv" | "getenv_opt") ] | [ "Unix"; ("getenv" | "environment") ]
    when ctx.in_lib && not ctx.env_exempt ->
      report ctx loc Rules.Ambient_env
        (Printf.sprintf
           "%s reads the environment from library code; take the value from \
            Run_config instead"
           (String.concat "." parts))
  | _ -> ());
  (match parts with
  | [ ("==" | "!=") ] ->
      if ctx.in_lib then
        report ctx loc Rules.Physical_eq
          (Printf.sprintf
             "(%s) is physical identity; use structural (=) or justify with an allow comment"
             (List.hd parts))
  | _ -> ());
  (match parts with
  | [ p ] when ctx.in_lib && List.mem p stdout_printers ->
      report ctx loc Rules.Stdout_print
        (Printf.sprintf "%s writes to stdout from library code; emit through Obs instead" p)
  | [ "Printf"; "printf" ] | [ "Format"; "printf" ] ->
      if ctx.in_lib then
        report ctx loc Rules.Stdout_print
          (Printf.sprintf "%s writes to stdout from library code; emit through Obs instead"
             (String.concat "." parts))
  | _ -> ());
  match List.rev parts with
  | op :: "Frame" :: _ -> (
      match Sites.op_of_name op with
      | Some o when not (Sites.allowed ~file:ctx.rel ~binding:ctx.binding o) ->
          report ctx loc Rules.Frame_site
            (Printf.sprintf
               "Frame.%s in %S is not in the audited site list (Lint.Sites); check its \
                pairing and add it there"
               op ctx.binding)
      | _ -> ())
  | _ -> ()

let iterator ctx =
  let open Ast_iterator in
  let expr sub (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident ctx loc (Longident.flatten txt)
    | _ -> ());
    default_iterator.expr sub e
  in
  let structure_item sub (item : Parsetree.structure_item) =
    match item.pstr_desc with
    | Pstr_value (_, bindings) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            let saved = ctx.binding in
            (match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } -> ctx.binding <- txt
            | _ -> ());
            sub.value_binding sub vb;
            ctx.binding <- saved)
          bindings
    | _ -> default_iterator.structure_item sub item
  in
  { default_iterator with expr; structure_item }

(* {1 Shared sources}

   Reading, comment-lexing and parsing one file is the bulk of a lint
   pass's wall time, and every pass needs the identical products — so
   they are loaded once into a [source] and shared ([seusslint --pass
   all] parses the tree exactly once for all three passes). *)

type source = {
  src_path : string;
  src_rel : string;
  src_text : string;
  src_comments : (string * Location.t) list;
  src_ast : (Parsetree.structure, exn) result;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let gather_comments src path =
  Lexer.init ();
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  (try
     let rec drain () =
       match Lexer.token lexbuf with Parser.EOF -> () | _ -> drain ()
     in
     drain ()
   with _ -> ());
  Lexer.comments ()

let load_source ?rel path =
  let rel = match rel with Some r -> r | None -> rel_of_path path in
  let text = read_file path in
  let comments = gather_comments text path in
  let ast =
    match
      Lexer.init ();
      let lexbuf = Lexing.from_string text in
      Location.init lexbuf path;
      Parse.implementation lexbuf
    with
    | ast -> Ok ast
    | exception exn -> Error exn
  in
  {
    src_path = path;
    src_rel = rel;
    src_text = text;
    src_comments = comments;
    src_ast = ast;
  }

(* {1 Per-file driver} *)

let check_source source =
  let rel = source.src_rel in
  let ctx = make_ctx rel in
  let meta = ref [] in
  let allows = ref [] in
  List.iter
    (fun (text, (loc : Location.t)) ->
      match parse_allow_text text with
      | None -> ()
      | Some `Malformed ->
          meta :=
            {
              file = rel;
              line = loc.loc_start.Lexing.pos_lnum;
              col = loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol;
              rule = Rules.bad_allow;
              message = "malformed seusslint comment; expected: seusslint: allow <rule> — <reason>";
            }
            :: !meta
      | Some (`Allow (rule_id, reason)) -> (
          let line = loc.loc_start.Lexing.pos_lnum in
          let col = loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol in
          match Rules.of_name rule_id with
          | Some r when not (List.mem r Rules.syntactic) ->
              let hint =
                if List.mem r Rules.heat then
                  "the heat pass; suppress it with a seussheat: cold marker"
                else if List.mem r Rules.own then
                  "the own pass; suppress it with a seussown: transfer marker"
                else "the deadlock pass; suppress it with a seussdead: allow comment"
              in
              meta :=
                {
                  file = rel;
                  line;
                  col;
                  rule = Rules.bad_allow;
                  message = Printf.sprintf "rule %s belongs to %s" rule_id hint;
                }
                :: !meta
          | None ->
              meta :=
                {
                  file = rel;
                  line;
                  col;
                  rule = Rules.bad_allow;
                  message = Printf.sprintf "unknown rule %S in allow comment" rule_id;
                }
                :: !meta
          | Some _ when String.length reason = 0 ->
              meta :=
                {
                  file = rel;
                  line;
                  col;
                  rule = Rules.bad_allow;
                  message =
                    Printf.sprintf "allow %s needs a reason: seusslint: allow %s — <why>"
                      rule_id rule_id;
                }
                :: !meta
          | Some r ->
              allows :=
                {
                  a_rule = r;
                  a_first = line;
                  a_last = loc.loc_end.Lexing.pos_lnum + 1;
                  a_line = line;
                  a_used = false;
                }
                :: !allows))
    source.src_comments;
  (match source.src_ast with
  | Ok ast ->
      let it = iterator ctx in
      it.structure it ast
  | Error exn ->
      meta :=
        {
          file = rel;
          line = 1;
          col = 0;
          rule = Rules.parse_error;
          message = Printexc.to_string exn;
        }
        :: !meta);
  let surviving =
    List.filter
      (fun v ->
        let suppressed =
          List.exists
            (fun a ->
              if
                Rules.name a.a_rule = v.rule
                && v.line >= a.a_first && v.line <= a.a_last
              then begin
                a.a_used <- true;
                true
              end
              else false)
            !allows
        in
        not suppressed)
      ctx.hits
  in
  let dead =
    List.filter_map
      (fun a ->
        if a.a_used then None
        else
          Some
            {
              file = rel;
              line = a.a_line;
              col = 0;
              rule = Rules.unused_allow;
              message =
                Printf.sprintf "allowance for %s suppresses nothing; delete it"
                  (Rules.name a.a_rule);
            })
      !allows
  in
  List.sort compare_violation (surviving @ dead @ !meta)

let check_file ?rel path = check_source (load_source ?rel path)

(* {1 Tree driver} *)

let rec source_files dir =
  match Sys.readdir dir with
  | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then
            if String.equal entry "_build" || prefixed ~prefix:"." entry then acc
            else acc @ source_files path
          else if Filename.check_suffix entry ".ml" then acc @ [ path ]
          else acc)
        [] entries
  | exception Sys_error _ -> []

(* Drop a leading [prefix] (itself normalized of ./ and ../) from [rel],
   so a fixture tree like test/lint_fixtures/lib/... classifies as
   lib/... — lets the lib-only rules fire on known-bad fixtures. *)
let strip_rel_prefix ~prefix rel =
  let prefix = rel_of_path prefix in
  let prefix =
    if prefix <> "" && prefix.[String.length prefix - 1] <> '/' then prefix ^ "/"
    else prefix
  in
  if prefix <> "" && prefixed ~prefix rel then
    String.sub rel (String.length prefix) (String.length rel - String.length prefix)
  else rel

let load_tree ?strip_prefix roots =
  let rel_of path =
    let rel = rel_of_path path in
    match strip_prefix with
    | None -> rel
    | Some prefix -> strip_rel_prefix ~prefix rel
  in
  List.concat_map
    (fun root ->
      List.map (fun f -> load_source ~rel:(rel_of f) f) (source_files root))
    roots

let check_sources sources =
  List.sort compare_violation (List.concat_map check_source sources)

let check_tree ?strip_prefix roots = check_sources (load_tree ?strip_prefix roots)
