type point = { time : float; value : float; ok : bool }

type t = { mutable rev_points : point list; mutable n : int; mutable fails : int }

let create () = { rev_points = []; n = 0; fails = 0 }

let add t ~time ~value ~ok =
  t.rev_points <- { time; value; ok } :: t.rev_points;
  t.n <- t.n + 1;
  if not ok then t.fails <- t.fails + 1

let length t = t.n
let failures t = t.fails

let points t =
  let a = Array.make t.n { time = 0.0; value = 0.0; ok = true } in
  let i = ref (t.n - 1) in
  List.iter
    (fun p ->
      a.(!i) <- p;
      decr i)
    t.rev_points;
  a
