type profile = Small | Medium | Large

(* 70/25/5 by low-order index digits: popularity rank and import size
   stay independent, so hot functions come in all three sizes. *)
let profile_of_index i =
  match abs i mod 20 with
  | 19 -> Large
  | 14 | 15 | 16 | 17 | 18 -> Medium
  | _ -> Small

let profile_name = function
  | Small -> "small"
  | Medium -> "medium"
  | Large -> "large"

(* [fn_id] and [source] are pure functions of the index, and every
   replayed call asks for both, so each is built once per index and
   kept: an array indexed by [i], grown by doubling, with [""] for "not
   built yet" (neither string is ever empty). Negative indices are built
   every time. *)
let memo build =
  let tbl = ref [||] in
  fun i ->
    if i < 0 then build i
    else begin
      let cached = !tbl in
      if i < Array.length cached && String.length cached.(i) > 0 then cached.(i)
      else begin
        if i >= Array.length cached then begin
          let grown = Array.make (max (i + 1) (2 * Array.length cached)) "" in
          Array.blit cached 0 grown 0 (Array.length cached);
          tbl := grown
        end;
        let s = build i in
        !tbl.(i) <- s;
        s
      end
    end

let fn_id = memo (fun i -> "zf-" ^ string_of_int i)

let work_ms i =
  match profile_of_index i with Small -> 0.0 | Medium -> 0.2 | Large -> 1.0

(* [work_ms] as the source spells it ([%.3f]). *)
let work_literal = function Small -> "0.000" | Medium -> "0.200" | Large -> "1.000"

let helpers_of = function Small -> 0 | Medium -> 6 | Large -> 24

let build_source i =
  let p = profile_of_index i in
  let helpers = helpers_of p in
  let buf = Buffer.create (256 + (96 * helpers)) in
  let add = Buffer.add_string buf and int n = Buffer.add_string buf (string_of_int n) in
  let helper_name h =
    add "h";
    int h;
    add "_";
    int i
  in
  for h = 0 to helpers - 1 do
    add "function ";
    helper_name h;
    add "(x) { let y = (x * ";
    int (h + 2);
    add " + ";
    int ((i + h) mod 251);
    add ") % 9973; return y + ";
    int (h mod 7);
    add "; }\n"
  done;
  add "function main(args) {\n";
  if helpers = 0 then begin
    add "  return {fn: ";
    int i;
    add "};\n"
  end
  else begin
    add "  let v = ";
    int (i mod 1009);
    add ";\n";
    for h = 0 to helpers - 1 do
      add "  v = ";
      helper_name h;
      add "(v);\n"
    done;
    add "  work(";
    add (work_literal p);
    add ");\n  return {fn: ";
    int i;
    add ", v: v};\n"
  end;
  add "}\n";
  Buffer.contents buf

let source = memo build_source
