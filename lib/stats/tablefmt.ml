type align = Left | Right

type row = Cells of string list | Separator

type t = {
  headers : string list;
  aligns : align list;
  mutable rev_rows : row list;
}

let create ~columns =
  if columns = [] then invalid_arg "Tablefmt.create: no columns";
  { headers = List.map fst columns; aligns = List.map snd columns; rev_rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Tablefmt.add_row: arity mismatch";
  t.rev_rows <- Cells cells :: t.rev_rows

let add_separator t = t.rev_rows <- Separator :: t.rev_rows

let render t =
  let rows = List.rev t.rev_rows in
  let widths =
    List.fold_left
      (fun ws row ->
        match row with
        | Separator -> ws
        | Cells cells -> List.map2 (fun w c -> max w (String.length c)) ws cells)
      (List.map String.length t.headers)
      rows
  in
  let pad align width s =
    let fill = String.make (width - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let buf = Buffer.create 256 in
  let emit_cells cells =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf " | ";
        let width = List.nth widths i and align = List.nth t.aligns i in
        Buffer.add_string buf (pad align width cell))
      cells;
    Buffer.add_string buf " |\n"
  in
  let rule () =
    Buffer.add_char buf '+';
    List.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  rule ();
  emit_cells t.headers;
  rule ();
  List.iter
    (fun row -> match row with Separator -> rule () | Cells c -> emit_cells c)
    rows;
  rule ();
  Buffer.contents buf
