type labels = (string * string) list

type counter = { mutable c : int }

type t = { table : (string * labels, counter) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

(* By key, then value: the order polymorphic [compare] gives the pairs. *)
let compare_label (k1, v1) (k2, v2) =
  match String.compare k1 k2 with 0 -> String.compare v1 v2 | c -> c

let counter t ?(labels = []) name =
  let key = (name, List.sort compare_label labels) in
  match Hashtbl.find_opt t.table key with
  | Some c -> c
  | None ->
      let c = { c = 0 } in
      Hashtbl.replace t.table key c;
      c

let inc counter = counter.c <- counter.c + 1

let add counter n =
  if n < 0 then invalid_arg "Metrics.add: counters only go up";
  counter.c <- counter.c + n

let value counter = counter.c

let sum_counters t ?(where = []) name =
  Det.fold
    (fun (n, labels) c acc ->
      if n = name && List.for_all (fun kv -> List.mem kv labels) where then
        acc + c.c
      else acc)
    t.table 0
