type location = { node_id : int; snapshot : Seuss.Snapshot.t }

type t = {
  table : (string, location list) Hashtbl.t;
  (* Schedule-sanitizer cell covering [table]: cross-node access with no
     happens-before edge at the same instant is a reportable race. *)
  cell : Sim.Hb.cell;
}

let create () =
  { table = Hashtbl.create 256; cell = Sim.Hb.cell ~name:"registry.table" }

let publish t ~fn_id ~node_id snapshot =
  Sim.Hb.write t.cell;
  let existing = Option.value (Hashtbl.find_opt t.table fn_id) ~default:[] in
  let others = List.filter (fun l -> l.node_id <> node_id) existing in
  Hashtbl.replace t.table fn_id ({ node_id; snapshot } :: others)

let locate t ~fn_id =
  Sim.Hb.read t.cell;
  match Hashtbl.find_opt t.table fn_id with
  | None -> []
  | Some locations ->
      let live =
        List.filter
          (fun l -> not (Seuss.Snapshot.is_deleted l.snapshot))
          locations
      in
      if List.length live <> List.length locations then begin
        (* Lazy compaction mutates the table, so this lookup is a write
           for race-detection purposes. *)
        Sim.Hb.write t.cell;
        Hashtbl.replace t.table fn_id live
      end;
      live

let evict t ~fn_id ~node_id =
  Sim.Hb.write t.cell;
  match Hashtbl.find_opt t.table fn_id with
  | None -> ()
  | Some locations ->
      Hashtbl.replace t.table fn_id
        (List.filter (fun l -> l.node_id <> node_id) locations)

let held_by t ~node_id =
  Sim.Hb.read t.cell;
  Det.fold
    (fun fn_id locations acc ->
      if List.exists (fun l -> l.node_id = node_id) locations then
        acc @ [ fn_id ]
      else acc)
    t.table []

let entries t =
  Sim.Hb.read t.cell;
  Hashtbl.length t.table
