type align = Stats.Tablefmt.align = Left | Right

type cell =
  | Int of int
  | Float of { v : float; dp : int; unit : string }
  | Int64 of int64
  | Bool of bool
  | Text of string
  | Absent

let f ?(unit = "") dp v = Float { v; dp; unit }
let ms seconds = f ~unit:"ms" 1 (seconds *. 1e3)
let mb bytes = f ~unit:"MB" 1 (Int64.to_float bytes /. 1048576.0)
let per_s v = f ~unit:"/s" 1 v

type meta = {
  key : string;
  head : (string * align) option;
  json : bool;
  csv : bool;
}

type 'r column = meta * ('r -> cell)

let col ?head ?(align = Right) ?(json = true) ?(csv = true) key cell =
  let head = Option.map (fun h -> (h, align)) head in
  ({ key; head; json = json && key <> ""; csv = csv && key <> "" }, cell)

(* A table with its cells read: per row its name (its JSON member when
   the table has no key), its cells and its nested rows' cells. *)
type table = {
  name : string;
  cols : meta list;
  sub : (string * meta list) option;
  rows : (string * cell list * cell list list) list;
}

type section =
  | Prose of string
  | Params of (string * cell) list
  | Table of table
  | Raw of string

type t = { title : string; sections : section list }

let text s = Prose s
let params ps = Params ps
let raw s = Raw s
let read cols r = List.map (fun (_, cell) -> cell r) cols

let rows_table name cols rows =
  Table
    {
      name;
      cols = List.map fst cols;
      sub = None;
      rows = List.map (fun (n, r) -> (n, read cols r, [])) rows;
    }

let table name cols rows =
  rows_table name cols (List.map (fun r -> ("", r)) rows)
let named cols rows = rows_table "" cols rows

let nested name cols sub_name sub_cols children rows =
  Table
    {
      name;
      cols = List.map fst cols;
      sub = Some (sub_name, List.map fst sub_cols);
      rows =
        List.map
          (fun r -> ("", read cols r, List.map (read sub_cols) (children r)))
          rows;
    }

(* {1 Writers} *)

let cell_text = function
  | Int n -> string_of_int n
  | Float { v; dp; unit } -> (
      (if dp < 0 then Printf.sprintf "%g" v else Printf.sprintf "%.*f" dp v)
      ^
      match unit with
      | "" -> ""
      | u -> ( match u.[0] with 'a' .. 'z' | 'A' .. 'Z' -> " " ^ u | _ -> u))
  | Int64 n -> Int64.to_string n
  | Bool b -> string_of_bool b
  | Text s -> s
  | Absent -> "-"

let cell_json = function
  | Int n -> Some (Obs.Json.Int n)
  | Float { v; _ } -> Some (Obs.Json.Float v)
  | Int64 n -> Some (Obs.Json.String (Int64.to_string n))
  | Bool b -> Some (Obs.Json.Bool b)
  | Text s -> Some (Obs.Json.String s)
  | Absent -> None

(* The cells whose column [keep] selects. *)
let pick keep metas cells =
  List.filter_map
    (fun (m, c) -> if keep m then Some c else None)
    (List.combine metas cells)

(* The table as flat records: a nested row's cells prefix each of its
   children's, and [None] ends each nested row's group. *)
let records t =
  match t.sub with
  | None -> (t.cols, List.map (fun (_, cells, _) -> Some cells) t.rows)
  | Some (_, sub) ->
      ( t.cols @ sub,
        List.concat_map
          (fun (_, cells, kids) ->
            List.map (fun k -> Some (cells @ k)) kids @ [ None ])
          t.rows )

let table_text t =
  let metas, records = records t in
  match List.filter_map (fun m -> m.head) metas with
  | [] -> ""
  | columns ->
      let shown m = Option.is_some m.head in
      let tf = Stats.Tablefmt.create ~columns in
      List.iter
        (function
          | None -> Stats.Tablefmt.add_separator tf
          | Some cells ->
              Stats.Tablefmt.add_row tf
                (List.map cell_text (pick shown metas cells)))
        records;
      Stats.Tablefmt.render tf

let to_text r =
  Printf.sprintf "%s\n%s\n" r.title (String.make (String.length r.title) '=')
  ^ String.concat ""
      (List.map
         (function
           | Prose s | Raw s -> s
           | Params _ -> ""
           | Table t -> table_text t)
         r.sections)

(* The JSON members of [cells] under [keys]; a cell under [""] or
   [Absent] has none. *)
let members keys cells =
  List.filter_map
    (fun (k, c) ->
      if k = "" then None else Option.map (fun j -> (k, j)) (cell_json c))
    (List.combine keys cells)

let table_json t =
  let keys metas = List.map (fun m -> if m.json then m.key else "") metas in
  let obj cells kids =
    let own = members (keys t.cols) cells in
    match t.sub with
    | None -> own
    | Some (name, sub) ->
        let kid k = Obs.Json.Obj (members (keys sub) k) in
        own @ [ (name, Obs.Json.List (List.map kid kids)) ]
  in
  let rows = List.map (fun (n, c, k) -> (n, Obs.Json.Obj (obj c k))) t.rows in
  if t.name = "" then rows else [ (t.name, Obs.Json.List (List.map snd rows)) ]

let to_json r =
  let fields =
    List.concat_map
      (function
        | Params ps -> members (List.map fst ps) (List.map snd ps)
        | Table t -> table_json t
        | Prose _ | Raw _ -> [])
      r.sections
  in
  Obs.Json.to_string (Obs.Json.Obj fields)
  ^ "\n"
  ^ String.concat ""
      (List.filter_map (function Raw s -> Some s | _ -> None) r.sections)

let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv r =
  match List.filter_map (function Table t -> Some t | _ -> None) r.sections with
  | [ t ] ->
      let metas, records = records t in
      let line cells = String.concat "," (List.map csv_field cells) ^ "\n" in
      let csv = function
        | Float { v; _ } -> Printf.sprintf "%.6f" v
        | Bool b -> if b then "1" else "0"
        | c -> cell_text c
      in
      line (pick (fun m -> m.csv) metas (List.map (fun m -> m.key) metas))
      ^ String.concat ""
          (List.filter_map
             (Option.map (fun cells ->
                  line (List.map csv (pick (fun m -> m.csv) metas cells))))
             records)
  | _ -> invalid_arg ("Report.to_csv: not one table in " ^ r.title)

(* {1 Shared sections} *)

let comparison rows =
  let unit_of = function
    | Float { unit; _ } when unit <> "" -> Some (Text unit)
    | _ -> None
  in
  table "quantities"
    [
      col ~head:"Quantity" ~align:Left "quantity" (fun (q, _, _) -> Text q);
      col ~head:"Paper" "paper" (fun (_, p, _) -> p);
      col ~head:"Measured" "measured" (fun (_, _, m) -> m);
      col "unit" (fun (_, p, m) ->
          match unit_of m with
          | Some u -> u
          | None -> Option.value (unit_of p) ~default:Absent);
    ]
    rows

let failed_calls = function
  | 0 -> Prose ""
  | n ->
      Prose
        (Printf.sprintf
           "failed calls: %d (an error or an unexpected path; not in the \
            latencies above)\n"
           n)
