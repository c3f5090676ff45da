(* seusslint coverage: every rule fires on its known-bad fixture, the
   allow machinery suppresses/complains correctly, and the shipped tree
   itself lints clean. *)

let fixture name = Filename.concat "lint_fixtures/lib" name

(* Fixtures pose as lib/ sources so lib-only rules apply to them. *)
let check name = Lint.Check.check_file ~rel:("lib/" ^ name) (fixture name)

let rules_hit vs =
  List.sort_uniq String.compare (List.map (fun v -> v.Lint.Source.rule) vs)

let check_fires () =
  let cases =
    [
      ("bad_random.ml", "bare-random", 1);
      ("bad_wallclock.ml", "wallclock", 2);
      ("bad_hashtbl.ml", "hashtbl-order", 6);
      ("bad_physeq.ml", "physical-eq", 2);
      ("bad_print.ml", "stdout-print", 2);
      ("bad_frame.ml", "frame-site", 4);
      ("bad_env.ml", "ambient-env", 3);
      ("sim/bad_poly_cmp.ml", "poly-cmp", 5);
    ]
  in
  List.iter
    (fun (file, rule, expected) ->
      let vs = check file in
      Alcotest.(check (list string)) (file ^ " rule") [ rule ] (rules_hit vs);
      Alcotest.(check int) (file ^ " count") expected (List.length vs))
    cases

let check_no_parse_errors () =
  (* Every fixture must be valid OCaml — a parse-error violation would
     silently satisfy the nonzero-exit expectation for the wrong reason. *)
  let sources = Lint.Source.load_tree [ "lint_fixtures" ] in
  List.iter
    (fun dir ->
      Alcotest.(check bool) (dir ^ " fixtures present") true
        (List.exists
           (fun (src : Lint.Source.t) ->
             String.starts_with ~prefix:("lint_fixtures/" ^ dir ^ "/") src.rel)
           sources))
    [ "lib"; "lib/sim" ];
  List.iter
    (fun (src : Lint.Source.t) ->
      match src.ast with
      | Ok _ -> ()
      | Error exn ->
          Alcotest.failf "%s failed to parse: %s" src.rel
            (Printexc.to_string exn))
    sources

let check_allow_suppresses () =
  Alcotest.(check (list string)) "allow_ok clean" [] (rules_hit (check "allow_ok.ml"))

let check_allow_unknown () =
  Alcotest.(check (list string))
    "unknown rule id reported" [ Lint.Rules.bad_allow ]
    (rules_hit (check "allow_unknown.ml"))

let check_allow_unused () =
  Alcotest.(check (list string))
    "dead allowance reported" [ Lint.Rules.unused_allow ]
    (rules_hit (check "allow_unused.ml"))

let check_positions () =
  match check "bad_random.ml" with
  | [ v ] ->
      Alcotest.(check string) "file" "lib/bad_random.ml" v.Lint.Source.file;
      Alcotest.(check int) "line" 2 v.Lint.Source.line
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let check_strip_prefix_tree () =
  (* Mirror CI's "The fixtures still fail" step: a tree run over the
     fixture root with the prefix stripped must classify files as lib/,
     fire every rule, and leave the clean allow_ok fixture clean. *)
  let vs =
    Lint.Check.check_tree ~strip_prefix:"lint_fixtures" [ "lint_fixtures" ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (v.Lint.Source.file ^ " reported lib-relative")
        true
        (String.length v.Lint.Source.file >= 4
        && String.equal (String.sub v.Lint.Source.file 0 4) "lib/"))
    vs;
  let rules = rules_hit vs in
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " fires in the fixture tree") true
        (List.mem r rules))
    (List.map Lint.Rules.name Lint.Rules.all);
  Alcotest.(check bool) "allow_ok stays clean" false
    (List.exists
       (fun v -> String.equal v.Lint.Source.file "lib/allow_ok.ml")
       vs)

(* poly-cmp is scoped by path to the layers every simulated event
   crosses: the same code elsewhere in lib/ is not flagged. *)
let check_poly_cmp_scope () =
  let path = fixture "sim/bad_poly_cmp.ml" in
  List.iter
    (fun dir ->
      Alcotest.(check int) (dir ^ " is scoped") 5
        (List.length
           (Lint.Check.check_file ~rel:("lib/" ^ dir ^ "/m.ml") path)))
    [ "sim"; "mem"; "obs"; "workload" ];
  List.iter
    (fun rel ->
      Alcotest.(check (list string)) (rel ^ " is not scoped") []
        (rules_hit (Lint.Check.check_file ~rel path)))
    [ "lib/seuss/m.ml"; "lib/simulator/m.ml"; "bin/m.ml"; "test/sim/m.ml" ]

(* {1 The catch ledger}

   test/lint_ledger.txt gives every rule its fixture, the shipped defect
   it caught and the run-time check covering its class, as
   `rule — fixture — caught — dynamic cover`. The ledger and the rule
   catalogue must name the same rules. *)

let check_ledger () =
  let entries =
    In_channel.with_open_text "lint_ledger.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:"#" l))
    |> List.map (fun line ->
           match String.split_on_char ' ' line with
           | rule :: "—" :: fixture :: "—" :: rest when List.mem "—" rest ->
               (rule, fixture)
           | _ -> Alcotest.failf "ledger line without four fields: %s" line)
  in
  let ledger = List.map fst entries in
  let catalogue = List.map Lint.Rules.name Lint.Rules.all in
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " has a ledger line") true
        (List.mem r ledger))
    catalogue;
  List.iter
    (fun (r, fixture) ->
      Alcotest.(check bool) (r ^ " is a catalogued rule") true
        (List.mem r catalogue);
      Alcotest.(check bool)
        (r ^ "'s fixture " ^ fixture ^ " exists")
        true
        (Sys.file_exists (Filename.concat "lint_fixtures" fixture)))
    entries;
  Alcotest.(check int) "one line per rule" (List.length catalogue)
    (List.length ledger)

(* {1 Roots} *)

(* Lint a scratch tree of [(repo-relative path, code)] files. *)
let lint_scratch files =
  let root = Filename.temp_dir "seusslint" "" in
  let rec mkdirs dir =
    if not (Sys.file_exists dir) then begin
      mkdirs (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  let paths = List.map (fun (rel, _) -> Filename.concat root rel) files in
  List.iter2
    (fun path (_, code) ->
      mkdirs (Filename.dirname path);
      Out_channel.with_open_bin path (fun oc -> output_string oc code))
    paths files;
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> remove root)
    (fun () -> Lint.Check.check_tree ~strip_prefix:root [ root ])

let check_missing_root () =
  match Lint.Source.load_tree [ "lint_fixtures"; "no/such/dir" ] with
  | _ -> Alcotest.fail "a missing root loaded"
  | exception Sys_error msg ->
      Alcotest.(check bool) ("message names the root: " ^ msg) true
        (String.starts_with ~prefix:"no/such/dir" msg)

let check_file_root () =
  let path = fixture "bad_physeq.ml" in
  let vs = Lint.Check.check_tree ~strip_prefix:"lint_fixtures" [ path ] in
  Alcotest.(check int) "a file root lints as itself" 2 (List.length vs);
  Alcotest.(check bool) "same violations as check_file" true
    (vs = Lint.Check.check_file ~rel:"lib/bad_physeq.ml" path)

(* {1 The allow grammar}

   A head (marker word, verb and rule) and a line it suppresses, linted
   under every grammar case in a scratch tree of its own, with the
   meta-diagnostics (bad-allow, unused-allow) pinned exactly. *)

let head = "seusslint: allow physical-eq"
let code = "let f a b = a == b"

(* Lint [comment] followed by [code] as lib/m.ml; its meta-diagnostics
   as (rule, message). *)
let lint_marker comment code =
  let vs =
    lint_scratch [ ("lib/m.ml", Printf.sprintf "(* %s *)\n%s\n" comment code) ]
  in
  List.filter_map
    (fun v ->
      let open Lint.Source in
      if v.rule = Lint.Rules.bad_allow || v.rule = Lint.Rules.unused_allow then
        Some (v.rule, v.message)
      else None)
    vs

let check_marker_grammar () =
  let malformed =
    [
      ( Lint.Rules.bad_allow,
        "malformed seusslint comment; expected: seusslint: allow <rule> — \
         <reason>" );
    ]
  in
  List.iter
    (fun (case, comment, code, expected) ->
      Alcotest.(check (list (pair string string)))
        case expected (lint_marker comment code))
    [
      ("valid", head ^ " — a reason", code, []);
      ( "missing reason",
        head,
        code,
        [
          ( Lint.Rules.bad_allow,
            "allow physical-eq needs a reason: seusslint: allow physical-eq \
             — <why>" );
        ] );
      ("unknown verb", "seusslint: frobnicate — a reason", code, malformed);
      ("no rule", "seusslint: allow", code, malformed);
      ( "unknown rule",
        "seusslint: allow heat-alloc — a reason",
        code,
        [ (Lint.Rules.bad_allow, "unknown rule \"heat-alloc\" in allow comment") ]
      );
      ("reason after --", head ^ " -- a reason", code, []);
      ("reason after -", head ^ " - a reason", code, []);
      ("reason without a dash", head ^ " a reason", code, []);
      ( "unused",
        head ^ " — a reason",
        "\n\n" ^ code,
        [
          ( Lint.Rules.unused_allow,
            "allowance for physical-eq suppresses nothing; delete it" );
        ] );
    ]

(* The shipped sources (copied into the build sandbox as our library
   deps) must come back clean — the same gate CI applies via seusslint.
   A missing root is an error, never a silent pass. *)
let check_clean_tree () =
  let vs = Lint.Check.check_tree [ "../lib"; "../bin" ] in
  List.iter
    (fun v ->
      Printf.eprintf "unexpected: %s:%d [%s] %s\n" v.Lint.Source.file
        v.Lint.Source.line v.Lint.Source.rule v.Lint.Source.message)
    vs;
  Alcotest.(check int) "violations in shipped tree" 0 (List.length vs)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "each fixture fires its rule" `Quick check_fires;
          Alcotest.test_case "fixtures parse" `Quick check_no_parse_errors;
          Alcotest.test_case "positions reported" `Quick check_positions;
          Alcotest.test_case "catch ledger matches the catalogue" `Quick
            check_ledger;
          Alcotest.test_case "poly-cmp scoped by path" `Quick
            check_poly_cmp_scope;
        ] );
      ( "allow",
        [
          Alcotest.test_case "suppression works" `Quick check_allow_suppresses;
          Alcotest.test_case "unknown rule rejected" `Quick check_allow_unknown;
          Alcotest.test_case "unused allowance rejected" `Quick check_allow_unused;
          Alcotest.test_case "marker grammar" `Quick check_marker_grammar;
        ] );
      ( "roots",
        [
          Alcotest.test_case "missing root is an error" `Quick
            check_missing_root;
          Alcotest.test_case "file root lints as itself" `Quick check_file_root;
        ] );
      ( "tree",
        [
          Alcotest.test_case "fixture tree under --strip-prefix" `Quick
            check_strip_prefix_tree;
          Alcotest.test_case "shipped tree is clean" `Quick check_clean_tree;
        ] );
    ]
