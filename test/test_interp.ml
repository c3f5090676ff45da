(* Tests for the MiniJS language: lexing, parsing, constant folding,
   evaluation semantics, builtins and metering hooks. *)

module Ast = Interp.Ast

let host = Interp.Builtins.null_host

let load src =
  match Interp.Minijs.load ~host src with
  | Ok p -> p
  | Error msg -> Alcotest.failf "load failed: %s" msg

(* Run [expr] in a program and render the result. *)
let eval_str expr =
  let p = load "" in
  match Interp.Minijs.parse_literal p expr with
  | Ok v -> Interp.Value.to_string v
  | Error msg -> Alcotest.failf "eval failed: %s" msg

let run_main ?(args = "null") src =
  let p = load src in
  match Interp.Minijs.run_main p ~args_literal:args with
  | Ok s -> s
  | Error msg -> Alcotest.failf "main failed: %s" msg

let check_eval msg expected expr =
  Alcotest.(check string) msg expected (eval_str expr)

(* {1 Lexer} *)

let test_lexer_tokens () =
  let toks = Interp.Lexer.tokenize "let x = 1.5; // comment\n x == \"hi\"" in
  let kinds =
    List.map
      (fun { Interp.Lexer.token; _ } ->
        match token with
        | Interp.Lexer.Tkeyword k -> "kw:" ^ k
        | Interp.Lexer.Tident i -> "id:" ^ i
        | Interp.Lexer.Tnum n -> Printf.sprintf "num:%g" n
        | Interp.Lexer.Tstr s -> "str:" ^ s
        | Interp.Lexer.Tpunct p -> p
        | Interp.Lexer.Teof -> "eof")
      toks
  in
  Alcotest.(check (list string)) "tokens"
    [ "kw:let"; "id:x"; "="; "num:1.5"; ";"; "id:x"; "=="; "str:hi"; "eof" ]
    kinds

let test_lexer_positions () =
  let toks = Interp.Lexer.tokenize "a\n  b" in
  match toks with
  | [ a; b; _eof ] ->
      Alcotest.(check (pair int int)) "a at 1:1" (1, 1) (a.Interp.Lexer.line, a.Interp.Lexer.col);
      Alcotest.(check (pair int int)) "b at 2:3" (2, 3) (b.Interp.Lexer.line, b.Interp.Lexer.col)
  | _ -> Alcotest.fail "unexpected token count"

let test_lexer_string_escapes () =
  match Interp.Lexer.tokenize {|"a\nb\"c"|} with
  | [ { Interp.Lexer.token = Interp.Lexer.Tstr s; _ }; _ ] ->
      Alcotest.(check string) "escapes" "a\nb\"c" s
  | _ -> Alcotest.fail "expected one string token"

let test_lexer_block_comment () =
  let toks = Interp.Lexer.tokenize "1 /* skip \n me */ 2" in
  Alcotest.(check int) "two numbers + eof" 3 (List.length toks)

let test_lexer_errors () =
  Alcotest.(check bool) "bad char" true
    (match Interp.Lexer.tokenize "let # = 1" with
    | _ -> false
    | exception Interp.Lexer.Lex_error _ -> true);
  Alcotest.(check bool) "unterminated string" true
    (match Interp.Lexer.tokenize "\"abc" with
    | _ -> false
    | exception Interp.Lexer.Lex_error _ -> true)

(* {1 Expressions and semantics} *)

let test_arithmetic () =
  check_eval "precedence" "7" "1 + 2 * 3";
  check_eval "parens" "9" "(1 + 2) * 3";
  check_eval "division" "2.5" "5 / 2";
  check_eval "modulo" "1" "7 % 2";
  check_eval "negation" "-3" "-(1 + 2)"

let test_comparison_and_logic () =
  check_eval "lt" "true" "1 < 2";
  check_eval "ge" "false" "1 >= 2";
  check_eval "and short circuit" "false" "false && undefined_variable";
  check_eval "or short circuit" "1" "1 || undefined_variable";
  check_eval "not" "true" "!0";
  check_eval "ternary" "\"yes\"" "2 > 1 ? \"yes\" : \"no\""

let test_string_ops () =
  check_eval "concat" "\"ab\"" "\"a\" + \"b\"";
  check_eval "coercion" "\"n=5\"" "\"n=\" + 5";
  check_eval "string compare" "true" "\"abc\" < \"abd\"";
  check_eval "index" "\"b\"" "\"abc\"[1]"

let test_arrays () =
  check_eval "literal" "[1, 2, 3]" "[1, 2, 3]";
  check_eval "index" "2" "[1, 2, 3][1]";
  check_eval "length" "3" "[1, 2, 3].length";
  Alcotest.(check string) "push and mutate" "[1, 2]"
    (run_main "function main(a) { let xs = [1]; push(xs, 2); return xs; }")

let test_objects () =
  check_eval "field" "5" "{a: 5}.a";
  check_eval "missing field is null" "null" "{a: 5}.b";
  check_eval "string key" "5" "{a: 5}[\"a\"]";
  Alcotest.(check string) "mutation" "{\"a\": 1, \"b\": 2}"
    (run_main "function main(x) { let o = {a: 1}; o.b = 2; return o; }")

let test_control_flow () =
  Alcotest.(check string) "while loop" "10"
    (run_main
       "function main(x) { let i = 0; let s = 0; while (i < 5) { s = s + i; i \
        = i + 1; } return s; }");
  Alcotest.(check string) "break" "3"
    (run_main
       "function main(x) { let i = 0; while (true) { i = i + 1; if (i == 3) { \
        break; } } return i; }");
  Alcotest.(check string) "continue skips evens" "9"
    (run_main
       "function main(x) { let i = 0; let s = 0; while (i < 5) { i = i + 1; \
        if (i % 2 == 0) { continue; } s = s + i; } return s; }");
  Alcotest.(check string) "for loop" "45"
    (run_main
       "function main(x) { let s = 0; for (let i = 0; i < 10; i = i + 1) { s \
        += i; } return s; }")

let test_functions () =
  Alcotest.(check string) "recursion" "120"
    (run_main
       "function fact(n) { return n <= 1 ? 1 : n * fact(n - 1); } function \
        main(x) { return fact(5); }");
  Alcotest.(check string) "closure captures" "3"
    (run_main
       "function adder(n) { return function(x) { return x + n; }; } function \
        main(a) { let add1 = adder(1); return add1(2); }");
  Alcotest.(check string) "higher order" "[2, 4]"
    (run_main
       "function map2(f, xs) { let out = []; for (let i = 0; i < xs.length; i \
        = i + 1) { push(out, f(xs[i])); } return out; } function main(a) { \
        return map2(function(x) { return x * 2; }, [1, 2]); }")

let test_scoping () =
  Alcotest.(check string) "block scope shadows" "1"
    (run_main
       "function main(a) { let x = 1; if (true) { let x = 2; x = 3; } return \
        x; }");
  Alcotest.(check string) "assignment reaches outer" "3"
    (run_main "function main(a) { let x = 1; if (true) { x = 3; } return x; }")

let test_main_args () =
  Alcotest.(check string) "args passed" "8"
    (let p = load "function main(args) { return args.a + args.b; }" in
     match Interp.Minijs.run_main p ~args_literal:"{a: 3, b: 5}" with
     | Ok s -> s
     | Error e -> Alcotest.fail e)

let test_runtime_errors () =
  let expect_error src =
    let p = load "function main(a) { return 0; }" in
    match Interp.Minijs.parse_literal p src with
    | Ok _ -> Alcotest.failf "expected error for %s" src
    | Error _ -> ()
  in
  expect_error "1 / 0";
  expect_error "undefined_var";
  expect_error "[1][5]";
  expect_error "null.field";
  expect_error "(5)(1)"

(* Constructs the other cases leave uncovered, each pinned to its
   expected value: coercion chains, logical results, mutation
   through nested paths, array growth by index, scope unwinding on
   break, closures over mutable state, and the error paths of calls. *)
let test_directed_constructs () =
  let main body = run_main ("function main(a) { " ^ body ^ " }") in
  check_eval "coercion chain" "\"x1true\"" "\"x\" + 1 + true";
  check_eval "|| yields an operand" "7" "false || 7";
  check_eval "&& short-circuits to false" "false" "0 && 1";
  check_eval "|| keeps a truthy string" "\"s\"" "\"s\" || 0";
  check_eval "empty string is falsy" "true" "!\"\"";
  check_eval "nested index" "5" "[[1, 2], [3, 4]][1][0] + [[1, 2], [3, 4]][0][1]";
  check_eval "hash is deterministic" "true" "hash(\"abc\") == hash(\"abc\")";
  check_eval "string sort" "[\"a\", \"b\"]" "sort([\"b\", \"a\"])";
  Alcotest.(check string) "index assignment grows an array" "2"
    (main "let xs = []; xs[0] = 5; xs[1] = 6; return len(xs);");
  Alcotest.(check string) "nested field assignment" "9"
    (main "let o = {inner: {v: 7}}; o.inner.v = 9; return o.inner.v;");
  Alcotest.(check string) "string accumulates in a for loop" "\"0123\""
    (main "let s = \"\"; for (let i = 0; i < 4; i += 1) { s = s + i; } return s;");
  Alcotest.(check string) "break unwinds nested scopes" "2"
    (main
       "let x = 1; let i = 0; while (i < 5) { i += 1; if (true) { let x = \
        99; if (x > 0) { break; } } } return x + i;");
  Alcotest.(check string) "closure over mutable state" "3"
    (main
       "let counter = function() { let n = 0; return function() { n = n + \
        1; return n; }; }; let t = counter(); let x = t(); return x + t();");
  let fails src =
    match Interp.Minijs.run_main (load src) ~args_literal:"null" with
    | Ok _ -> false
    | Error _ -> true
  in
  Alcotest.(check bool) "too few arguments" true
    (fails "function g(a, b) { return a; } function main(x) { return g(1); }");
  Alcotest.(check bool) "mixed-type sort" true
    (fails "function main(x) { return sort([1, \"a\"]); }")

let test_parse_errors () =
  let expect_parse_error src =
    match Interp.Minijs.load ~host src with
    | Ok _ -> Alcotest.failf "expected parse error for %s" src
    | Error _ -> ()
  in
  expect_parse_error "let = 5";
  expect_parse_error "if (true) {";
  expect_parse_error "1 +";
  expect_parse_error "function f(a { }";
  expect_parse_error "5 = x"

let test_continue_in_for_rejected () =
  match Interp.Minijs.load ~host "for (let i = 0; i < 3; i += 1) { continue; }" with
  | Ok _ -> Alcotest.fail "continue in for should be rejected"
  | Error _ -> ()

(* {1 Constant folding} *)

let test_folding_shrinks () =
  let compiled src =
    match Interp.Compile.compile src with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let c = compiled "let x = 1 + 2 * 3;" in
  Alcotest.(check bool) "folded smaller" true
    (c.Interp.Compile.nodes < c.Interp.Compile.raw_nodes);
  let c2 = compiled "if (false) { heavy(); } else { light(); }" in
  Alcotest.(check bool) "dead branch pruned" true
    (c2.Interp.Compile.nodes < c2.Interp.Compile.raw_nodes)

let folding_preserves_semantics =
  (* Generate arithmetic expression trees; folded and unfolded versions
     must evaluate identically. *)
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          if n <= 0 then map (fun i -> Ast.Num (float_of_int i)) (int_range 0 20)
          else
            frequency
              [
                (1, map (fun i -> Ast.Num (float_of_int i)) (int_range 0 20));
                ( 2,
                  map3
                    (fun op a b -> Ast.Binop (op, a, b))
                    (oneofl [ Ast.Add; Ast.Sub; Ast.Mul ])
                    (self (n / 2)) (self (n / 2)) );
                ( 1,
                  map3
                    (fun c a b ->
                      Ast.Ternary (Ast.Binop (Ast.Lt, c, Ast.Num 10.0), a, b))
                    (self (n / 2)) (self (n / 2)) (self (n / 2)) );
              ]))
  in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"constant folding preserves evaluation" ~count:200 arb
    (fun expr ->
      let program = [ Ast.Return (Some expr) ] in
      let run prog =
        let f =
          Interp.Value.Closure
            { Interp.Value.params = []; body = prog; env = Interp.Value.new_env () }
        in
        Interp.Value.to_string (Interp.Eval.call Interp.Eval.default_hooks f [])
      in
      run program = run (Interp.Compile.fold_program program))

(* {1 Builtins} *)

let test_builtins () =
  check_eval "len str" "3" "len(\"abc\")";
  check_eval "len arr" "2" "len([1, 2])";
  check_eval "floor" "2" "floor(2.9)";
  check_eval "abs" "4" "abs(-4)";
  check_eval "min max" "7" "min(9, 7) + max(-1, 0)";
  check_eval "pow" "8" "pow(2, 3)";
  check_eval "sqrt" "5" "sqrt(25)";
  check_eval "substr" "\"bc\"" "substr(\"abcd\", 1, 2)";
  check_eval "split" "[\"a\", \"b\"]" "split(\"a,b\", \",\")";
  check_eval "range" "[0, 1, 2]" "range(3)";
  check_eval "num parses" "42" "num(\"42\")";
  check_eval "str renders" "\"[1]\"" "str([1])";
  check_eval "json object" "\"{\\\"a\\\": 1}\"" "json({a: 1})";
  check_eval "keys sorted" "[\"a\", \"b\"]" "keys({b: 1, a: 2})";
  check_eval "join" "\"1-2\"" "join([1, 2], \"-\")";
  check_eval "contains" "true" "contains(\"abc\", \"bc\")";
  check_eval "index_of miss" "-1" "index_of([1, 2], 5)";
  check_eval "index_of string" "2" "index_of(\"abcd\", \"cd\")";
  check_eval "upper/lower/trim" "\"ABxyz\"" "upper(\"ab\") + lower(\"XY\") + trim(\" z \")";
  check_eval "slice" "[2, 3]" "slice([1, 2, 3, 4], 1, 2)";
  check_eval "sort" "[1, 2, 3]" "sort([2, 3, 1])"

let test_builtin_errors () =
  let p = load "" in
  let is_error src =
    match Interp.Minijs.parse_literal p src with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "len arity" true (is_error "len(1, 2)");
  Alcotest.(check bool) "len of number" true (is_error "len(5)");
  Alcotest.(check bool) "substr bounds" true (is_error "substr(\"ab\", 0, 9)");
  Alcotest.(check bool) "http without network" true (is_error "http_get(\"x\")")

let test_host_hooks () =
  let worked = ref 0.0 and logged = ref [] in
  let host =
    {
      Interp.Builtins.null_host with
      Interp.Builtins.work_ms = (fun ms -> worked := !worked +. ms);
      log = (fun s -> logged := s :: !logged);
      http_get = (fun url -> Ok ("body:" ^ url));
      now = (fun () -> 123.0);
    }
  in
  let p =
    match
      Interp.Minijs.load ~host
        "function main(a) { work(150); print(\"hi\"); return http_get(\"u\") + \
         \":\" + now(); }"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  (match Interp.Minijs.run_main p ~args_literal:"null" with
  | Ok s -> Alcotest.(check string) "io result" "\"body:u:123\"" s
  | Error e -> Alcotest.fail e);
  Alcotest.(check (float 1e-9)) "work recorded" 150.0 !worked;
  Alcotest.(check (list string)) "log captured" [ "hi" ] !logged

(* {1 Cloning} *)

let test_clone_isolates_mutation () =
  let src =
    "let counter = 0; function main(a) { counter = counter + 1; return \
     counter; }"
  in
  let original = load src in
  let copy = Interp.Minijs.clone ~host original in
  let run p =
    match Interp.Minijs.run_main p ~args_literal:"null" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "original first" "1" (run original);
  Alcotest.(check string) "original second" "2" (run original);
  Alcotest.(check string) "copy unaffected" "1" (run copy);
  Alcotest.(check string) "original keeps going" "3" (run original)

let test_clone_preserves_closures () =
  let src =
    "function counter() { let n = 0; return function() { n = n + 1; return n; \
     }; } let tick = counter(); function main(a) { return tick(); }"
  in
  let original = load src in
  ignore
    (match Interp.Minijs.run_main original ~args_literal:"null" with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
  let copy = Interp.Minijs.clone ~host original in
  (* The copy's closure state starts from the captured value (1), and
     advances independently. *)
  (match Interp.Minijs.run_main copy ~args_literal:"null" with
  | Ok s -> Alcotest.(check string) "copy continues from capture" "2" s
  | Error e -> Alcotest.fail e);
  match Interp.Minijs.run_main original ~args_literal:"null" with
  | Ok s -> Alcotest.(check string) "original unaffected by copy" "2" s
  | Error e -> Alcotest.fail e

let test_clone_shares_nothing_mutable () =
  let src =
    "let store = {items: []}; function main(a) { push(store.items, a); return \
     store.items; }"
  in
  let original = load src in
  let copy = Interp.Minijs.clone ~host original in
  (match Interp.Minijs.run_main original ~args_literal:"1" with
  | Ok s -> Alcotest.(check string) "original" "[1]" s
  | Error e -> Alcotest.fail e);
  match Interp.Minijs.run_main copy ~args_literal:"2" with
  | Ok s -> Alcotest.(check string) "copy sees only its own write" "[2]" s
  | Error e -> Alcotest.fail e

let test_clone_rebinds_host () =
  let logged = ref [] in
  let host2 =
    {
      Interp.Builtins.null_host with
      Interp.Builtins.log = (fun s -> logged := s :: !logged);
    }
  in
  let original = load "function main(a) { print(\"x\"); return 0; }" in
  let copy = Interp.Minijs.clone ~host:host2 original in
  (match Interp.Minijs.run_main copy ~args_literal:"null" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "copy logs to new host" [ "x" ] !logged

let test_clone_handles_cycles () =
  (* A closure stored in the same scope it captures: the environment
     graph is cyclic; the copy must terminate and stay isolated. *)
  let src =
    "let cell = {f: null, n: 0}; cell.f = function() { cell.n = cell.n + 1;      return cell.n; }; function main(a) { return cell.f(); }"
  in
  let original = load src in
  (match Interp.Minijs.run_main original ~args_literal:"null" with
  | Ok s -> Alcotest.(check string) "original ticks" "1" s
  | Error e -> Alcotest.fail e);
  let copy = Interp.Minijs.clone ~host original in
  (match Interp.Minijs.run_main copy ~args_literal:"null" with
  | Ok s -> Alcotest.(check string) "copy continues from captured state" "2" s
  | Error e -> Alcotest.fail e);
  match Interp.Minijs.run_main original ~args_literal:"null" with
  | Ok s -> Alcotest.(check string) "original unaffected" "2" s
  | Error e -> Alcotest.fail e

(* {1 Metering} *)

let test_metering_counts_work_and_allocs () =
  let ticked = ref 0.0 and allocated = ref 0 in
  let hooks =
    {
      Interp.Eval.alloc = (fun b -> allocated := !allocated + b);
      work = (fun s -> ticked := !ticked +. s);
      max_ops = 10_000_000;
    }
  in
  let p =
    match
      Interp.Minijs.load ~hooks ~host
        "function main(a) { let s = \"\"; for (let i = 0; i < 1000; i += 1) { \
         s = s + \"x\"; } return len(s); }"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  (match Interp.Minijs.run_main p ~args_literal:"null" with
  | Ok s -> Alcotest.(check string) "result" "1000" s
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "work billed" true (!ticked > 0.0);
  (* 1000 string concats of growing strings allocate ~0.5 MB. *)
  Alcotest.(check bool) "allocations metered" true (!allocated > 100_000)

let test_ops_budget_stops_runaway () =
  let hooks = { Interp.Eval.default_hooks with Interp.Eval.max_ops = 10_000 } in
  let p =
    match
      Interp.Minijs.load ~hooks ~host "function main(a) { while (true) { 1; } }"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  match Interp.Minijs.run_main p ~args_literal:"null" with
  | Ok _ -> Alcotest.fail "expected budget exhaustion"
  | Error msg ->
      Alcotest.(check bool) "mentions budget" true
        (String.length msg > 0)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  let qcase = QCheck_alcotest.to_alcotest in
  Alcotest.run "interp"
    [
      ( "lexer",
        [
          case "tokens" test_lexer_tokens;
          case "positions" test_lexer_positions;
          case "string escapes" test_lexer_string_escapes;
          case "block comment" test_lexer_block_comment;
          case "errors" test_lexer_errors;
        ] );
      ( "semantics",
        [
          case "arithmetic" test_arithmetic;
          case "comparison and logic" test_comparison_and_logic;
          case "strings" test_string_ops;
          case "arrays" test_arrays;
          case "objects" test_objects;
          case "control flow" test_control_flow;
          case "functions" test_functions;
          case "scoping" test_scoping;
          case "main args" test_main_args;
          case "runtime errors" test_runtime_errors;
          case "directed constructs" test_directed_constructs;
          case "parse errors" test_parse_errors;
          case "continue in for rejected" test_continue_in_for_rejected;
        ] );
      ( "compile",
        [ case "folding shrinks" test_folding_shrinks; qcase folding_preserves_semantics ] );
      ( "builtins",
        [
          case "library" test_builtins;
          case "errors" test_builtin_errors;
          case "host hooks" test_host_hooks;
        ] );
      ( "clone",
        [
          case "isolates mutation" test_clone_isolates_mutation;
          case "preserves closures" test_clone_preserves_closures;
          case "shares nothing mutable" test_clone_shares_nothing_mutable;
          case "rebinds host" test_clone_rebinds_host;
          case "handles cycles" test_clone_handles_cycles;
        ] );
      ( "metering",
        [
          case "work and allocs" test_metering_counts_work_and_allocs;
          case "ops budget" test_ops_budget_stops_runaway;
        ] );
    ]
