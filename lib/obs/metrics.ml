type labels = (string * string) list

type counter = { mutable c : int }

type t = { table : (string * labels, counter) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let counter t ?(labels = []) name =
  let key = (name, List.sort compare labels) in
  match Hashtbl.find_opt t.table key with
  | Some c -> c
  | None ->
      let c = { c = 0 } in
      Hashtbl.replace t.table key c;
      c

let inc ?(by = 1) counter =
  if by < 0 then invalid_arg "Metrics.inc: counters only go up";
  counter.c <- counter.c + by

let value counter = counter.c

let sum_counters t ?(where = []) name =
  Det.fold
    (fun (n, labels) c acc ->
      if n = name && List.for_all (fun kv -> List.mem kv labels) where then
        acc + c.c
      else acc)
    t.table 0
