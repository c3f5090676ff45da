(* Prints the lexer golden dump that test_interp checks the lexer
   against: a few hand-written edge cases, every Fnset profile's
   source, every MiniJS literal ({|...|}) in the OCaml files named on
   the command line (the examples), and the first [mutants] cases of
   test_fuzz's MiniJS battery at its default seed.

     dune exec test/lexer_golden.exe -- examples/*.ml > test/lexer_golden.txt

   Regenerate it only when tokens are meant to change. *)

let mutants = 300

(* Every token kind, operator and error message, written out. *)
let edges =
  [
    "a==b!=c<=d>=e&&f||g+=h-=i=j+k-l*m/n%o<p>q!r?s:t";
    "({[]}),;. $x _y z9 12 3.25 4. .5 007";
    "'it\\'s' \"q\\\"\\n\\t\\\\\" x // line\n/* block\n*/ y";
    "let var function return if else while for true false null break continue";
    "'bad \\q'";
    "\"open";
    "'ends in escape\\";
    "/* open";
    "a & b";
    "x\000y";
    "\r\n\tz\n\n  #";
    "";
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The {|...|} literals of an OCaml file, in order. *)
let literals text =
  let rec from i acc =
    match Str.search_forward (Str.regexp_string "{|") text i with
    | exception Not_found -> List.rev acc
    | start -> (
        let body = start + 2 in
        match Str.search_forward (Str.regexp_string "|}") text body with
        | exception Not_found -> List.rev acc
        | stop -> from (stop + 2) (String.sub text body (stop - body) :: acc))
  in
  from 0 []

let () =
  let profiles = List.map Workload.Fnset.source [ 0; 14; 19 ] in
  let examples =
    List.concat_map
      (fun path -> literals (read_file path))
      (List.tl (Array.to_list Sys.argv))
  in
  let rand = Mutate.rand ~seed:31L Mutate.minijs_name in
  let gen = Mutate.mutant Mutate.minijs_corpus in
  let fuzz = List.init mutants (fun _ -> gen rand) in
  List.iter
    (fun src -> print_string (Lexdump.render_source src))
    (edges @ profiles @ examples @ fuzz)
