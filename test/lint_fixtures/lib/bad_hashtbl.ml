(* Fixture: raw bucket-order iteration escaping into a result. *)
let dump tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
let walk tbl f = Hashtbl.iter f tbl
let prune tbl = Hashtbl.filter_map_inplace (fun _ v -> Some v) tbl
let pairs tbl = List.of_seq (Hashtbl.to_seq tbl)
let names tbl = List.of_seq (Hashtbl.to_seq_keys tbl)
let values tbl = List.of_seq (Hashtbl.to_seq_values tbl)
