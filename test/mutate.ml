(* Seeded byte mutations of valid inputs, shared by the boundary fuzz
   battery (test_fuzz) and the lexer golden dump (lexer_golden): a
   mutation applies a few random edits (overwrite, insert, delete,
   truncate, or splice in a token of the format) so most cases stay
   close to well-formed and reach deep into the parser. *)

let tokens =
  [ "{"; "}"; "["; "]"; "\""; "\\"; ":"; ","; "."; "-"; "e"; "1e999";
    "null"; "true"; "\\u00e9"; "\\ud800"; "\n"; "("; ")"; ";"; "/";
    "function"; "return"; "while"; "0x"; "/*"; "k"; "m"; "g"; "1/"; " " ]

let edit s =
  let open QCheck.Gen in
  let len = String.length s in
  let* pos = int_bound len in
  let* byte = char in
  let* token = oneofl tokens in
  let before = String.sub s 0 pos and after = String.sub s pos (len - pos) in
  let rest_after k = String.sub after k (String.length after - k) in
  oneofl
    [
      (if after = "" then s else before ^ String.make 1 byte ^ rest_after 1);
      before ^ String.make 1 byte ^ after;
      (if after = "" then s else before ^ rest_after 1);
      before;
      before ^ token ^ after;
    ]

let mutant corpus =
  let open QCheck.Gen in
  let* base = oneofl corpus in
  let* edits = int_range 1 6 in
  let rec go s k =
    if k = 0 then return s else edit s >>= fun s -> go s (k - 1)
  in
  go base edits

(* A generator's random state for the battery [name] at [seed]: each
   battery draws its own stream. *)
let rand ~seed name = Random.State.make [| Int64.to_int seed; Hashtbl.hash name |]

let minijs_name = "Minijs.load + run_main"

let minijs_corpus =
  [
    "function main(args) { return {fn: 3}; }";
    "function main(a) { let s = 0; let i = 0; while (i < 10) { s = s + i; \
     i = i + 1; } return [s, \"x\" + s, a]; }";
    "function f(n) { if (n < 2) { return n; } return f(n - 1) + f(n - 2); }\n\
     function main(a) { return f(8); }";
    "let o = {a: [1, 2], b: \"s\"}; function main(a) { o.c = o.a[1]; \
     return o; }";
    Workload.Fnset.source 0;
    Workload.Fnset.source 7;
  ]
