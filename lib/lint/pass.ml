(* A lint pass and the program it runs over. *)

type t = {
  name : string;
  rules : Rules.id list;
  marker : Marker.grammar;
  hint : string;
  check : program -> Source.violation list;
}

and program = {
  sources : Source.t list;
  dirs : string list;
  graph : Graph.t Lazy.t;
  passes : t list;
}

let owner prog r = List.find (fun p -> List.mem r p.rules) prog.passes

let stale_entry prog ~file ~binding =
  let g = Lazy.force prog.graph in
  match
    List.find_opt
      (fun ((src : Source.t), _) -> String.equal src.rel file)
      g.files
  with
  | Some (_, nodes) ->
      if
        List.exists
          (fun (n : Graph.node) -> String.equal n.binding binding)
          nodes
      then None
      else
        Some
          (Printf.sprintf "%s has no top-level binding %s" file binding)
  | None ->
      let dir = Filename.dirname file in
      if List.mem dir prog.dirs then
        Some (Printf.sprintf "%s is missing from the scanned %s/" file dir)
      else None

let markers prog pass =
  let foreign r =
    let o = owner prog r in
    Printf.sprintf "the %s pass; suppress it with %s" o.name o.hint
  in
  let scanned =
    List.map (Marker.scan pass.marker ~rules:pass.rules ~foreign) prog.sources
  in
  (List.concat_map fst scanned, List.concat_map snd scanned)
