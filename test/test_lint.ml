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
    [ "lib"; "deadlock"; "heat"; "own" ];
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

let check_deadlock_fixture_tree () =
  (* Mirror CI's "Deadlock fixtures still fail" step: each fixture file
     trips exactly its rule family, with the planted counts, and the
     seussdead allow fixture stays clean. *)
  let vs =
    Lint.Passes.check_tree ~strip_prefix:"lint_fixtures" Lint.Deadlock.pass
      [ "lint_fixtures/deadlock" ]
  in
  check_planted vs "deadlock/"
    [
      ("handler_blocks.ml", "block-in-handler", 3);
      ("lock_cycle.ml", "lock-order", 2);
      ("leaked_acquire.ml", "unreleased-acquire", 1);
    ];
  Alcotest.(check (list string)) "allow_ok clean under seussdead" []
    (rules_hit (in_file vs "deadlock/allow_ok.ml"));
  (* The base/heat fixtures must not confuse the deadlock pass — except
     for the heat ambiguity fixture, whose suffix-2 collision the
     deadlock pass also surfaces (at every reference site, hot or not). *)
  let whole =
    Lint.Passes.check_tree ~strip_prefix:"lint_fixtures" Lint.Deadlock.pass
      [ "lint_fixtures" ]
  in
  Alcotest.(check int) "whole fixture tree: planted hits + the collision" 7
    (List.length whole);
  Alcotest.(check (list string))
    "the one extra is the suffix-2 collision"
    [ Lint.Rules.ambiguous_resolve ]
    (rules_hit
       (List.filter
          (fun v -> String.starts_with ~prefix:"heat/" v.Lint.Source.file)
          whole));
  Alcotest.(check bool) "base pass ignores deadlock/heat fixtures" false
    (List.exists
       (fun v ->
         String.starts_with ~prefix:"deadlock/" v.Lint.Source.file
         || String.starts_with ~prefix:"heat/" v.Lint.Source.file)
       (Lint.Passes.check_tree ~strip_prefix:"lint_fixtures" Lint.Check.pass
          [ "lint_fixtures" ]))

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
  (* Cross-pass isolation: the heat pass sees nothing in the base and
     deadlock fixtures (their markers are not seussheat's), and the heat
     markers are invisible to the other two scanners. *)
  Alcotest.(check int) "heat pass ignores the base/deadlock fixtures" 0
    (List.length
       (Lint.Passes.check_tree ~strip_prefix:"lint_fixtures" Lint.Heat.pass
          [ "lint_fixtures/lib"; "lint_fixtures/deadlock" ]))

let check_own_fixture_tree () =
  (* Mirror CI's "Own fixtures still fail" step: every ownership rule
     fires on its fixture with the planted count, the marker meta-rules
     fire, and the justified-transfer fixture stays clean. *)
  let vs =
    Lint.Passes.check_tree ~strip_prefix:"lint_fixtures" Lint.Own.pass
      [ "lint_fixtures/own" ]
  in
  check_planted vs "own/"
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
    (rules_hit (in_file vs "own/transfer_ok.ml"));
  Alcotest.(check int) "whole own fixture tree: only the planted hits" 8
    (List.length vs);
  (* Every ownership finding must carry its root-to-site chain — the
     report doubles as the ownership-flow proof. *)
  List.iter
    (fun v ->
      if String.starts_with ~prefix:"own-" v.Lint.Source.rule then
        Alcotest.(check bool)
          (v.Lint.Source.rule ^ " message carries an ownership chain") true
          (contains v.Lint.Source.message " -> "))
    vs;
  (* Cross-pass isolation: the own fixtures are invisible to the other
     three passes (their markers are not seussown's and vice versa),
     and the own pass sees nothing in the deadlock fixtures. *)
  Alcotest.(check int) "base pass ignores the own fixtures" 0
    (List.length
       (List.filter
          (fun v -> String.starts_with ~prefix:"own/" v.Lint.Source.file)
          (Lint.Passes.check_tree ~strip_prefix:"lint_fixtures" Lint.Check.pass
             [ "lint_fixtures" ])));
  List.iter
    (fun ((pass : Lint.Pass.t), dir) ->
      Alcotest.(check int)
        (Printf.sprintf "%s pass ignores the %s fixtures" pass.name dir)
        0
        (List.length
           (Lint.Passes.check_tree ~strip_prefix:"lint_fixtures" pass
              [ "lint_fixtures/" ^ dir ])))
    [
      (Lint.Deadlock.pass, "own"); (Lint.Heat.pass, "own");
      (Lint.Own.pass, "deadlock");
    ]

let check_pass_all_shared_parse () =
  (* --pass all must equal the union of the four passes over the same
     tree, deduplicated: the three interprocedural passes all surface
     the same suffix-2 collision, which must be reported once. *)
  let sources =
    Lint.Source.load_tree ~strip_prefix:"lint_fixtures" [ "lint_fixtures" ]
  in
  let prog = Lint.Passes.program sources in
  let base = Lint.Passes.check prog Lint.Check.pass in
  let dl = Lint.Passes.check prog Lint.Deadlock.pass in
  let heat = Lint.Passes.check prog Lint.Heat.pass in
  let own = Lint.Passes.check prog Lint.Own.pass in
  let merged =
    List.sort_uniq Lint.Source.compare_violation (base @ dl @ heat @ own)
  in
  Alcotest.(check int) "dedup removes the triply-reported collision"
    (List.length base + List.length dl + List.length heat + List.length own
   - 2)
    (List.length merged)

(* {1 Roots} *)

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
    ( Lint.Deadlock.pass, "seussdead: allow unreleased-acquire",
      "let f () = Sim.Semaphore.acquire s",
      "allowance for unreleased-acquire suppresses nothing; delete it" );
    ( Lint.Heat.pass, "seussheat: cold", "let f x = x + 1",
      "cold marker covers no binding and silences nothing; delete it" );
    ( Lint.Own.pass, "seussown: transfer", "let f () = Frame.alloc ()",
      "transfer marker covers no acquire and silences nothing; delete it" );
  ]

(* Lint [comment] followed by [code] (the deadlock row's semaphore is
   declared first) as lib/m.ml; its meta-diagnostics as (rule, message). *)
let lint_marker (pass : Lint.Pass.t) comment code =
  let root = Filename.temp_dir "seusslint" "" in
  Sys.mkdir (Filename.concat root "lib") 0o755;
  let path = Filename.concat root "lib/m.ml" in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc
        "let s = Sim.Semaphore.create 1 (* seussdead: lock t.s *)\n\n\
         (* %s *)\n\
         %s\n"
        comment code);
  let vs =
    Fun.protect
      ~finally:(fun () ->
        Sys.remove path;
        Sys.rmdir (Filename.concat root "lib");
        Sys.rmdir root)
      (fun () -> Lint.Passes.check_tree ~strip_prefix:root pass [ root ])
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
      let foreign, foreign_msg =
        if pass.name = "own" then
          ( "heat-alloc",
            "rule heat-alloc belongs to the heat pass; suppress it with a \
             seussheat: cold marker" )
        else
          ( "own-escape",
            "rule own-escape belongs to the own pass; suppress it with a \
             seussown: transfer marker" )
      in
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
      List.iter
        (fun (case, comment, code, expected) ->
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s: %s" pass.name case)
            expected (lint_marker pass comment code))
        [
          ("valid", head ^ " — a reason", code, []);
          ("missing reason", head, code, [ (Lint.Rules.bad_allow, missing) ]);
          ("unknown verb", word ^ " frobnicate — a reason", code, malformed);
          ( "rule of another pass",
            Printf.sprintf "%s allow %s — a reason" word foreign,
            code,
            if has_allow then [ (Lint.Rules.bad_allow, foreign_msg) ]
            else malformed );
          ("reason after --", head ^ " -- a reason", code, []);
          ("reason after -", head ^ " - a reason", code, []);
          ("reason without a dash", head ^ " a reason", code, []);
          ( "unused",
            head ^ " — a reason",
            "\n\n" ^ code,
            [ (Lint.Rules.unused_allow, unused) ] );
        ])
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
          Alcotest.test_case "deadlock fixture tree" `Quick
            check_deadlock_fixture_tree;
          Alcotest.test_case "heat fixture tree" `Quick
            check_heat_fixture_tree;
          Alcotest.test_case "own fixture tree" `Quick
            check_own_fixture_tree;
          Alcotest.test_case "--pass all shares one parse" `Quick
            check_pass_all_shared_parse;
        ]
        @ clean_tree_cases );
    ]
