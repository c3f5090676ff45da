(* seusslint coverage: every rule fires on its known-bad fixture, the
   allow machinery suppresses/complains correctly, and the shipped tree
   itself lints clean. *)

let fixture name = Filename.concat "lint_fixtures/lib" name

(* Fixtures pose as lib/ sources so lib-only rules apply to them. *)
let check name = Lint.Passes.check_file ~rel:("lib/" ^ name) (fixture name)

let rules_hit vs =
  List.sort_uniq String.compare (List.map (fun v -> v.Lint.Source.rule) vs)

let contains s sub =
  let n = String.length sub in
  let rec from i =
    i + n <= String.length s && (String.sub s i n = sub || from (i + 1))
  in
  from 0

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
    [ "lib"; "heat" ];
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
  (* Mirror CI's "Fixtures still fail" step: a tree run over the fixture
     root with the prefix stripped must classify files as lib/, fire
     every lib-only rule, and leave the clean allow_ok fixture clean. *)
  let vs =
    Lint.Passes.check_tree ~strip_prefix:"lint_fixtures" Lint.Check.pass
      [ "lint_fixtures" ]
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
    (List.map Lint.Rules.name Lint.Check.pass.rules);
  Alcotest.(check bool) "allow_ok stays clean" false
    (List.exists
       (fun v -> String.equal v.Lint.Source.file "lib/allow_ok.ml")
       vs)

(* Each fixture file under [dir] trips exactly its rule, with the
   planted count. *)
let in_file vs f = List.filter (fun v -> String.equal v.Lint.Source.file f) vs

let check_planted vs dir cases =
  List.iter
    (fun (file, rule, expected) ->
      let hits = in_file vs (dir ^ file) in
      Alcotest.(check (list string)) (file ^ " rule") [ rule ] (rules_hit hits);
      Alcotest.(check int) (file ^ " count") expected (List.length hits))
    cases

let check_heat_fixture_tree () =
  (* Mirror CI's "Heat fixtures still fail" step: every heat rule fires
     on its fixture with the planted count, the marker meta-rules fire,
     the ambiguity fixture surfaces its collision, and the justified
     cold markers leave their file clean. *)
  let vs =
    Lint.Passes.check_tree ~strip_prefix:"lint_fixtures" Lint.Heat.pass
      [ "lint_fixtures/heat" ]
  in
  check_planted vs "heat/"
    [
      ("hot_closure.ml", "heat-closure", 1);
      ("hot_alloc.ml", "heat-alloc", 3);
      ("hot_string.ml", "heat-string", 2);
      ("hot_float_box.ml", "heat-float-box", 1);
      ("hot_poly_cmp.ml", "heat-poly-cmp", 3);
      ("hot_partial.ml", "heat-partial-apply", 1);
      ("bad_cold.ml", Lint.Rules.bad_allow, 2);
      ("unused_cold.ml", Lint.Rules.unused_allow, 2);
      ("amb_use.ml", Lint.Rules.ambiguous_resolve, 1);
    ];
  Alcotest.(check (list string)) "cold_ok clean under seussheat" []
    (rules_hit (in_file vs "heat/cold_ok.ml"));
  Alcotest.(check int) "whole heat fixture tree: only the planted hits" 16
    (List.length vs);
  (* Every violation inside a hot binding must carry its root-to-site
     chain — the report doubles as the hotness proof. *)
  List.iter
    (fun v ->
      if String.starts_with ~prefix:"heat-" v.Lint.Source.rule then
        Alcotest.(check bool)
          (v.Lint.Source.rule ^ " message carries a hot chain") true
          (contains v.Lint.Source.message "hot path ("))
    vs;
  (* Cross-pass isolation: the heat pass sees nothing in the base
     fixtures (their markers are not seussheat's), and the base pass
     nothing in the heat fixtures. *)
  Alcotest.(check int) "heat pass ignores the base fixtures" 0
    (List.length
       (Lint.Passes.check_tree ~strip_prefix:"lint_fixtures" Lint.Heat.pass
          [ "lint_fixtures/lib" ]));
  Alcotest.(check bool) "base pass ignores the heat fixtures" false
    (List.exists
       (fun v -> String.starts_with ~prefix:"heat/" v.Lint.Source.file)
       (Lint.Passes.check_tree ~strip_prefix:"lint_fixtures" Lint.Check.pass
          [ "lint_fixtures" ]))

let check_pass_all_shared_parse () =
  (* --pass all over one shared parse must report exactly the union of
     the two passes over the same tree, each finding attributed to the
     pass that produced it. *)
  let sources =
    Lint.Source.load_tree ~strip_prefix:"lint_fixtures" [ "lint_fixtures" ]
  in
  let prog =
    Lint.Passes.program
      ~dirs:(Lint.Source.scanned_dirs ~strip_prefix:"lint_fixtures"
               [ "lint_fixtures" ])
      sources
  in
  let base = Lint.Passes.check prog Lint.Check.pass in
  let heat = Lint.Passes.check prog Lint.Heat.pass in
  let merged =
    Lint.Passes.merge [ (Lint.Check.pass, base); (Lint.Heat.pass, heat) ]
  in
  Alcotest.(check int) "the union of both passes"
    (List.length base + List.length heat)
    (List.length merged);
  Alcotest.(check int) "heat findings attributed to the heat pass"
    (List.length heat)
    (List.length
       (List.filter
          (fun ((p : Lint.Pass.t), _) -> String.equal p.name "heat")
          merged))

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

(* Lint a scratch tree of [(repo-relative path, code)] files with
   [pass]; [file_roots] lints each file as a root of its own instead
   of walking the tree. *)
let lint_scratch ?(file_roots = false) (pass : Lint.Pass.t) files =
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
    (fun () ->
      Lint.Passes.check_tree ~strip_prefix:root pass
        (if file_roots then paths else [ root ]))

let found vs =
  List.map
    (fun (v : Lint.Source.violation) -> (v.rule, v.file, v.message))
    vs

(* A registry root must name a binding its file still defines. Lint a
   scratch lib/obs/ holding the three registered roots' files: with
   log.ml lacking [emit] the heat pass reports that root stale, with
   [emit] defined it reports nothing. *)
let lint_obs log_code =
  lint_scratch Lint.Heat.pass
    [
      ("lib/obs/log.ml", log_code);
      ("lib/obs/breakdown.ml", "let fold_record x = x\n");
      ("lib/obs/metrics.ml", "let inc x = x\n");
    ]

let check_stale_hot_root () =
  (match lint_obs "let record x = x\n" with
  | [ v ] ->
      Alcotest.(check string) "rule" Lint.Rules.stale_root v.Lint.Source.rule;
      Alcotest.(check string) "file" "lib/obs/log.ml" v.Lint.Source.file;
      Alcotest.(check bool) "message names the binding" true
        (contains v.Lint.Source.message "hot root emit")
  | vs -> Alcotest.failf "expected one stale root, got %d" (List.length vs));
  Alcotest.(check int) "a defined root is not stale" 0
    (List.length (lint_obs "let emit x = x\n"))

(* A root whose file is gone from a scanned directory is stale too;
   linting the surviving file on its own says nothing about its
   siblings. *)
let check_deleted_hot_root_file () =
  let missing file =
    ( Lint.Rules.stale_root,
      "lib/obs/" ^ file,
      Printf.sprintf
        "hot root %s is registered in Lint.Hotroots but lib/obs/%s is \
         missing from the scanned lib/obs/; update or delete the entry"
        (if file = "metrics.ml" then "inc" else "fold_record")
        file )
  in
  let files = [ ("lib/obs/log.ml", "let emit x = x\n") ] in
  Alcotest.(check (list (triple string string string)))
    "both missing roots reported"
    [ missing "breakdown.ml"; missing "metrics.ml" ]
    (found (lint_scratch Lint.Heat.pass files));
  Alcotest.(check int) "a file root walks no directory" 0
    (List.length (lint_scratch ~file_roots:true Lint.Heat.pass files))

let check_missing_root () =
  match Lint.Source.load_tree [ "lint_fixtures"; "no/such/dir" ] with
  | _ -> Alcotest.fail "a missing root loaded"
  | exception Sys_error msg ->
      Alcotest.(check bool) ("message names the root: " ^ msg) true
        (String.starts_with ~prefix:"no/such/dir" msg)

let check_file_root () =
  let path = fixture "bad_physeq.ml" in
  let vs =
    Lint.Passes.check_tree ~strip_prefix:"lint_fixtures" Lint.Check.pass
      [ path ]
  in
  Alcotest.(check int) "a file root lints as itself" 2 (List.length vs);
  Alcotest.(check bool) "same violations as check_file" true
    (vs = Lint.Passes.check_file ~rel:"lib/bad_physeq.ml" path)

(* {1 The marker grammar}

   One row per pass: its marker head (word, verb and any rule argument),
   a line the head suppresses or is used by, the suppression hint another
   pass gives for its rules, and the unused-allow text. Each row is
   linted under every grammar case in a scratch tree of its own, and the
   meta-diagnostics (bad-allow, unused-allow) are pinned exactly. *)

let marker_rows =
  [
    ( Lint.Check.pass, "seusslint: allow physical-eq", "let f a b = a == b",
      "allowance for physical-eq suppresses nothing; delete it" );
    ( Lint.Heat.pass, "seussheat: cold", "let f x = x + 1",
      "cold marker covers no binding and silences nothing; delete it" );
  ]

(* One rule per pass, and the hint a marker of another pass gets when it
   names that rule. *)
let foreign_rules =
  [
    ( "base", "physical-eq",
      "rule physical-eq belongs to the base pass; suppress it with a \
       seusslint: allow comment" );
    ( "heat", "heat-alloc",
      "rule heat-alloc belongs to the heat pass; suppress it with a \
       seussheat: cold marker" );
  ]

(* Lint [comment] followed by [code] as lib/m.ml; its meta-diagnostics
   as (rule, message). *)
let lint_marker (pass : Lint.Pass.t) comment code =
  let vs =
    lint_scratch pass
      [ ("lib/m.ml", Printf.sprintf "(* %s *)\n%s\n" comment code) ]
  in
  List.filter_map
    (fun v ->
      let open Lint.Source in
      if v.rule = Lint.Rules.bad_allow || v.rule = Lint.Rules.unused_allow then
        Some (v.rule, v.message)
      else None)
    vs

let check_marker_grammar () =
  List.iter
    (fun ((pass : Lint.Pass.t), head, code, unused) ->
      let word = List.hd (String.split_on_char ' ' head) in
      let verb = List.nth (String.split_on_char ' ' head) 1 in
      let malformed = [ (Lint.Rules.bad_allow, pass.marker.malformed) ] in
      let missing =
        let arg = String.concat " " (List.tl (String.split_on_char ' ' head)) in
        if arg = verb then
          Printf.sprintf "%s marker needs a reason: %s — <why>" verb head
        else Printf.sprintf "%s needs a reason: %s — <why>" arg head
      in
      let has_allow =
        List.exists
          (fun (v : Lint.Marker.verb) -> v.verb = "allow")
          pass.marker.verbs
      in
      let foreign =
        List.filter_map
          (fun (owner, rule, hint) ->
            if owner = pass.name then None
            else
              Some
                ( "rule of the " ^ owner ^ " pass",
                  Printf.sprintf "%s allow %s — a reason" word rule,
                  code,
                  if has_allow then [ (Lint.Rules.bad_allow, hint) ]
                  else malformed ))
          foreign_rules
      in
      List.iter
        (fun (case, comment, code, expected) ->
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s: %s" pass.name case)
            expected (lint_marker pass comment code))
        ([
           ("valid", head ^ " — a reason", code, []);
           ("missing reason", head, code, [ (Lint.Rules.bad_allow, missing) ]);
           ("unknown verb", word ^ " frobnicate — a reason", code, malformed);
           ("reason after --", head ^ " -- a reason", code, []);
           ("reason after -", head ^ " - a reason", code, []);
           ("reason without a dash", head ^ " a reason", code, []);
           ( "unused",
             head ^ " — a reason",
             "\n\n" ^ code,
             [ (Lint.Rules.unused_allow, unused) ] );
         ]
        @ foreign))
    marker_rows

(* The shipped sources (copied into the build sandbox as our library
   deps) must come back clean under every pass — the same gate CI applies
   via seusslint. A missing root is an error, never a silent pass. *)
let check_clean_tree (pass : Lint.Pass.t) () =
  let vs = Lint.Passes.check_tree pass [ "../lib"; "../bin" ] in
  List.iter
    (fun v ->
      Printf.eprintf "unexpected: %s:%d [%s] %s\n" v.Lint.Source.file
        v.Lint.Source.line v.Lint.Source.rule v.Lint.Source.message)
    vs;
  Alcotest.(check int)
    (pass.name ^ " violations in shipped tree")
    0 (List.length vs)

let clean_tree_cases =
  List.mapi
    (fun i (pass : Lint.Pass.t) ->
      let name =
        if i = 0 then "shipped tree is clean"
        else Printf.sprintf "shipped tree is %s-clean" pass.name
      in
      Alcotest.test_case name `Quick (check_clean_tree pass))
    Lint.Passes.all

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
          Alcotest.test_case "stale hot root is a finding" `Quick
            check_stale_hot_root;
          Alcotest.test_case "deleted hot root file is a finding" `Quick
            check_deleted_hot_root_file;
        ] );
      ( "tree",
        [
          Alcotest.test_case "fixture tree under --strip-prefix" `Quick
            check_strip_prefix_tree;
          Alcotest.test_case "heat fixture tree" `Quick
            check_heat_fixture_tree;
          Alcotest.test_case "--pass all shares one parse" `Quick
            check_pass_all_shared_parse;
        ]
        @ clean_tree_cases );
    ]
