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
  graph : Graph.t Lazy.t;
  passes : t list;
}

let owner prog r = List.find (fun p -> List.mem r p.rules) prog.passes

let markers prog pass =
  let foreign r =
    let o = owner prog r in
    Printf.sprintf "the %s pass; suppress it with %s" o.name o.hint
  in
  let scanned =
    List.map (Marker.scan pass.marker ~rules:pass.rules ~foreign) prog.sources
  in
  (List.concat_map fst scanned, List.concat_map snd scanned)
