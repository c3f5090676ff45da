type entry = { label : string; paper : string; measured : string }

let heading title =
  Printf.sprintf "%s\n%s\n" title (String.make (String.length title) '=')

let comparison ~title ~note entries =
  let table =
    Stats.Tablefmt.create
      ~columns:
        [
          ("Quantity", Stats.Tablefmt.Left);
          ("Paper", Stats.Tablefmt.Right);
          ("Measured", Stats.Tablefmt.Right);
        ]
  in
  List.iter
    (fun e -> Stats.Tablefmt.add_row table [ e.label; e.paper; e.measured ])
    entries;
  let body = Stats.Tablefmt.render table in
  if note = "" then Printf.sprintf "%s%s" (heading title) body
  else Printf.sprintf "%s%s\n%s" (heading title) note body

let ms seconds = Printf.sprintf "%.1f ms" (seconds *. 1e3)

let mb bytes = Printf.sprintf "%.1f MB" (Int64.to_float bytes /. 1048576.0)

let mb_of_pages pages = mb (Mem.Mconfig.bytes_of_pages pages)

let per_s v = Printf.sprintf "%.1f/s" v

let csv_field f =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') f then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' f) ^ "\""
  else f

let write_csv ~path ~header rows =
  let oc = open_out path in
  let emit row = output_string oc (String.concat "," (List.map csv_field row) ^ "\n") in
  emit header;
  List.iter emit rows;
  close_out oc
