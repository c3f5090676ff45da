(* seusslint coverage: every rule fires on its known-bad fixture, the
   allow machinery suppresses/complains correctly, and the shipped tree
   itself lints clean. *)

let fixture name = Filename.concat "lint_fixtures/lib" name

(* Fixtures pose as lib/ sources so lib-only rules apply to them. *)
let check name = Lint.Check.check_file ~rel:("lib/" ^ name) (fixture name)

let rules_hit vs =
  List.sort_uniq String.compare (List.map (fun v -> v.Lint.Check.rule) vs)

let check_fires () =
  let cases =
    [
      ("bad_random.ml", "bare-random", 1);
      ("bad_wallclock.ml", "wallclock", 2);
      ("bad_hashtbl.ml", "hashtbl-order", 2);
      ("bad_physeq.ml", "physical-eq", 2);
      ("bad_print.ml", "stdout-print", 2);
      ("bad_frame.ml", "frame-site", 3);
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
  (* The fixtures must be valid OCaml — a parse-error violation would
     silently satisfy the nonzero-exit expectation for the wrong reason. *)
  List.iter
    (fun file ->
      let vs = check file in
      List.iter
        (fun v ->
          if String.equal v.Lint.Check.rule Lint.Rules.parse_error then
            Alcotest.failf "%s failed to parse: %s" file v.Lint.Check.message)
        vs)
    (Array.to_list (Sys.readdir "lint_fixtures/lib"))

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
      Alcotest.(check string) "file" "lib/bad_random.ml" v.Lint.Check.file;
      Alcotest.(check int) "line" 2 v.Lint.Check.line
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let check_strip_prefix_tree () =
  (* Mirror CI's "Fixtures still fail" step: a tree run over the fixture
     root with the prefix stripped must classify files as lib/, fire
     every lib-only rule, and leave the clean allow_ok fixture clean. *)
  let vs =
    Lint.Check.check_tree ~strip_prefix:"lint_fixtures" [ "lint_fixtures" ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (v.Lint.Check.file ^ " reported lib-relative")
        true
        (String.length v.Lint.Check.file >= 4
        && String.equal (String.sub v.Lint.Check.file 0 4) "lib/"))
    vs;
  let rules = rules_hit vs in
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " fires in the fixture tree") true
        (List.mem r rules))
    [
      "bare-random"; "wallclock"; "hashtbl-order"; "physical-eq";
      "stdout-print"; "frame-site"; "ambient-env";
    ];
  Alcotest.(check bool) "allow_ok stays clean" false
    (List.exists
       (fun v -> String.equal v.Lint.Check.file "lib/allow_ok.ml")
       vs)

let check_deadlock_fixture_tree () =
  (* Mirror CI's "Deadlock fixtures still fail" step: each fixture file
     trips exactly its rule family, with the planted counts, and the
     seussdead allow fixture stays clean. *)
  let vs =
    Lint.Deadlock.check_tree ~strip_prefix:"lint_fixtures"
      [ "lint_fixtures/deadlock" ]
  in
  let in_file f =
    List.filter (fun v -> String.equal v.Lint.Check.file f) vs
  in
  List.iter
    (fun (file, rule, expected) ->
      let hits = in_file ("deadlock/" ^ file) in
      Alcotest.(check (list string)) (file ^ " rule") [ rule ] (rules_hit hits);
      Alcotest.(check int) (file ^ " count") expected (List.length hits))
    [
      ("handler_blocks.ml", "block-in-handler", 3);
      ("lock_cycle.ml", "lock-order", 2);
      ("leaked_acquire.ml", "unreleased-acquire", 1);
    ];
  Alcotest.(check (list string)) "allow_ok clean under seussdead" []
    (rules_hit (in_file "deadlock/allow_ok.ml"));
  (* The base/heat fixtures must not confuse the deadlock pass — except
     for the heat ambiguity fixture, whose suffix-2 collision the
     deadlock pass also surfaces (at every reference site, hot or not). *)
  let whole =
    Lint.Deadlock.check_tree ~strip_prefix:"lint_fixtures" [ "lint_fixtures" ]
  in
  Alcotest.(check int) "whole fixture tree: planted hits + the collision" 7
    (List.length whole);
  Alcotest.(check (list string))
    "the one extra is the suffix-2 collision"
    [ Lint.Rules.ambiguous_resolve ]
    (rules_hit
       (List.filter
          (fun v -> String.starts_with ~prefix:"heat/" v.Lint.Check.file)
          whole));
  Alcotest.(check bool) "base pass ignores deadlock/heat fixtures" false
    (List.exists
       (fun v ->
         String.starts_with ~prefix:"deadlock/" v.Lint.Check.file
         || String.starts_with ~prefix:"heat/" v.Lint.Check.file)
       (Lint.Check.check_tree ~strip_prefix:"lint_fixtures"
          [ "lint_fixtures" ]))

let check_heat_fixture_tree () =
  (* Mirror CI's "Heat fixtures still fail" step: every heat rule fires
     on its fixture with the planted count, the marker meta-rules fire,
     the ambiguity fixture surfaces its collision, and the justified
     cold markers leave their file clean. *)
  let vs =
    Lint.Heat.check_tree ~strip_prefix:"lint_fixtures"
      [ "lint_fixtures/heat" ]
  in
  let in_file f =
    List.filter (fun v -> String.equal v.Lint.Check.file f) vs
  in
  List.iter
    (fun (file, rule, expected) ->
      let hits = in_file ("heat/" ^ file) in
      Alcotest.(check (list string)) (file ^ " rule") [ rule ] (rules_hit hits);
      Alcotest.(check int) (file ^ " count") expected (List.length hits))
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
    (rules_hit (in_file "heat/cold_ok.ml"));
  Alcotest.(check int) "whole heat fixture tree: only the planted hits" 16
    (List.length vs);
  (* Every violation inside a hot binding must carry its root-to-site
     chain — the report doubles as the hotness proof. *)
  List.iter
    (fun v ->
      if String.starts_with ~prefix:"heat-" v.Lint.Check.rule then
        Alcotest.(check bool)
          (v.Lint.Check.rule ^ " message carries a hot chain") true
          (let msg = v.Lint.Check.message in
           let rec has i =
             i + 10 <= String.length msg
             && (String.equal (String.sub msg i 10) "hot path (" || has (i + 1))
           in
           has 0))
    vs;
  (* Cross-pass isolation: the heat pass sees nothing in the base and
     deadlock fixtures (their markers are not seussheat's), and the heat
     markers are invisible to the other two scanners. *)
  Alcotest.(check int) "heat pass ignores the base/deadlock fixtures" 0
    (List.length
       (Lint.Heat.check_tree ~strip_prefix:"lint_fixtures"
          [ "lint_fixtures/lib"; "lint_fixtures/deadlock" ]))

let check_own_fixture_tree () =
  (* Mirror CI's "Own fixtures still fail" step: every ownership rule
     fires on its fixture with the planted count, the marker meta-rules
     fire, and the justified-transfer fixture stays clean. *)
  let vs =
    Lint.Own.check_tree ~strip_prefix:"lint_fixtures"
      [ "lint_fixtures/own" ]
  in
  let in_file f =
    List.filter (fun v -> String.equal v.Lint.Check.file f) vs
  in
  List.iter
    (fun (file, rule, expected) ->
      let hits = in_file ("own/" ^ file) in
      Alcotest.(check (list string)) (file ^ " rule") [ rule ] (rules_hit hits);
      Alcotest.(check int) (file ^ " count") expected (List.length hits))
    [
      ("leak_escape.ml", "own-escape", 1);
      ("exn_leak.ml", "own-exn-leak", 1);
      ("double_release.ml", "own-double-release", 1);
      ("use_after_destroy.ml", "own-use-after-destroy", 1);
      ("unbalanced.ml", "own-unbalanced", 1);
      ("bad_marker.ml", Lint.Rules.bad_allow, 2);
      ("unused_marker.ml", Lint.Rules.unused_allow, 1);
    ];
  Alcotest.(check (list string)) "transfer_ok clean under seussown" []
    (rules_hit (in_file "own/transfer_ok.ml"));
  Alcotest.(check int) "whole own fixture tree: only the planted hits" 8
    (List.length vs);
  (* Every ownership finding must carry its root-to-site chain — the
     report doubles as the ownership-flow proof. *)
  List.iter
    (fun v ->
      if String.starts_with ~prefix:"own-" v.Lint.Check.rule then
        Alcotest.(check bool)
          (v.Lint.Check.rule ^ " message carries an ownership chain") true
          (let msg = v.Lint.Check.message in
           let rec has i =
             i + 4 <= String.length msg
             && (String.equal (String.sub msg i 4) " -> " || has (i + 1))
           in
           has 0))
    vs;
  (* Cross-pass isolation: the own fixtures are invisible to the other
     three passes (their markers are not seussown's and vice versa),
     and the own pass sees nothing in the deadlock fixtures. *)
  Alcotest.(check int) "base pass ignores the own fixtures" 0
    (List.length
       (List.filter
          (fun v -> String.starts_with ~prefix:"own/" v.Lint.Check.file)
          (Lint.Check.check_tree ~strip_prefix:"lint_fixtures"
             [ "lint_fixtures" ])));
  Alcotest.(check int) "deadlock pass ignores the own fixtures" 0
    (List.length
       (Lint.Deadlock.check_tree ~strip_prefix:"lint_fixtures"
          [ "lint_fixtures/own" ]));
  Alcotest.(check int) "heat pass ignores the own fixtures" 0
    (List.length
       (Lint.Heat.check_tree ~strip_prefix:"lint_fixtures"
          [ "lint_fixtures/own" ]));
  Alcotest.(check int) "own pass ignores the deadlock fixtures" 0
    (List.length
       (Lint.Own.check_tree ~strip_prefix:"lint_fixtures"
          [ "lint_fixtures/deadlock" ]))

let check_pass_all_shared_parse () =
  (* --pass all must equal the union of the four passes over the same
     tree, deduplicated: the three interprocedural passes all surface
     the same suffix-2 collision, which must be reported once. *)
  let sources =
    Lint.Check.load_tree ~strip_prefix:"lint_fixtures" [ "lint_fixtures" ]
  in
  let base = Lint.Check.check_sources sources in
  let dl = Lint.Deadlock.check_sources sources in
  let heat = Lint.Heat.check_sources sources in
  let own = Lint.Own.check_sources sources in
  let merged =
    List.sort_uniq Lint.Check.compare_violation (base @ dl @ heat @ own)
  in
  Alcotest.(check int) "dedup removes the triply-reported collision"
    (List.length base + List.length dl + List.length heat + List.length own
   - 2)
    (List.length merged)

let check_clean_tree () =
  (* The shipped sources (copied into the build sandbox as our library
     deps) must lint clean — the same gate CI applies via seusslint. *)
  let roots = List.filter Sys.file_exists [ "../lib"; "../bin" ] in
  if roots = [] then ()
  else
    let vs = Lint.Check.check_tree roots in
    List.iter
      (fun v ->
        Printf.eprintf "unexpected: %s:%d [%s] %s\n" v.Lint.Check.file
          v.Lint.Check.line v.Lint.Check.rule v.Lint.Check.message)
      vs;
    Alcotest.(check int) "violations in shipped tree" 0 (List.length vs)

let check_clean_tree_deadlock () =
  (* The deadlock pass must also come back clean on the shipped tree:
     every Semaphore.create carries a lock class, the class graph is
     acyclic, and nothing reachable from an atomic context may block. *)
  let roots = List.filter Sys.file_exists [ "../lib"; "../bin" ] in
  if roots = [] then ()
  else
    let vs = Lint.Deadlock.check_tree roots in
    List.iter
      (fun v ->
        Printf.eprintf "unexpected: %s:%d [%s] %s\n" v.Lint.Check.file
          v.Lint.Check.line v.Lint.Check.rule v.Lint.Check.message)
      vs;
    Alcotest.(check int) "deadlock violations in shipped tree" 0
      (List.length vs)

let check_clean_tree_heat () =
  (* The heat pass must come back clean on the shipped tree: every
     allocation reachable from the registered hot roots is either
     rewritten away or carries a justified cold marker. *)
  let roots = List.filter Sys.file_exists [ "../lib"; "../bin" ] in
  if roots = [] then ()
  else begin
    let vs = Lint.Heat.check_tree roots in
    List.iter
      (fun v ->
        Printf.eprintf "unexpected: %s:%d [%s] %s\n" v.Lint.Check.file
          v.Lint.Check.line v.Lint.Check.rule v.Lint.Check.message)
      vs;
    Alcotest.(check int) "heat violations in shipped tree" 0 (List.length vs)
  end

let check_clean_tree_own () =
  (* The own pass must come back clean on the shipped tree: every
     acquire reaches a release on every path, or sits in the Lint.Sites
     transfer registry, or carries a justified transfer marker. *)
  let roots = List.filter Sys.file_exists [ "../lib"; "../bin" ] in
  if roots = [] then ()
  else begin
    let vs = Lint.Own.check_tree roots in
    List.iter
      (fun v ->
        Printf.eprintf "unexpected: %s:%d [%s] %s\n" v.Lint.Check.file
          v.Lint.Check.line v.Lint.Check.rule v.Lint.Check.message)
      vs;
    Alcotest.(check int) "own violations in shipped tree" 0 (List.length vs)
  end

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "each fixture fires its rule" `Quick check_fires;
          Alcotest.test_case "fixtures parse" `Quick check_no_parse_errors;
          Alcotest.test_case "positions reported" `Quick check_positions;
        ] );
      ( "allow",
        [
          Alcotest.test_case "suppression works" `Quick check_allow_suppresses;
          Alcotest.test_case "unknown rule rejected" `Quick check_allow_unknown;
          Alcotest.test_case "unused allowance rejected" `Quick check_allow_unused;
        ] );
      ( "tree",
        [
          Alcotest.test_case "fixture tree under --strip-prefix" `Quick
            check_strip_prefix_tree;
          Alcotest.test_case "deadlock fixture tree" `Quick
            check_deadlock_fixture_tree;
          Alcotest.test_case "heat fixture tree" `Quick
            check_heat_fixture_tree;
          Alcotest.test_case "own fixture tree" `Quick
            check_own_fixture_tree;
          Alcotest.test_case "--pass all shares one parse" `Quick
            check_pass_all_shared_parse;
          Alcotest.test_case "shipped tree is clean" `Quick check_clean_tree;
          Alcotest.test_case "shipped tree is deadlock-clean" `Quick
            check_clean_tree_deadlock;
          Alcotest.test_case "shipped tree is heat-clean" `Quick
            check_clean_tree_heat;
          Alcotest.test_case "shipped tree is own-clean" `Quick
            check_clean_tree_own;
        ] );
    ]
