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

let window_counts t ~width =
  if width <= 0.0 then invalid_arg "Series.window_counts: width";
  if t.n = 0 then []
  else begin
    let pts = points t in
    (* Windows are anchored at multiples of [width] so bin edges are
       predictable regardless of when the first event lands. *)
    let tmin =
      Array.fold_left (fun acc p -> Float.min acc p.time) Float.infinity pts
    in
    let tmin = Float.of_int (int_of_float (floor (tmin /. width))) *. width in
    let tmax =
      Array.fold_left (fun acc p -> Float.max acc p.time) Float.neg_infinity pts
    in
    let nwin = 1 + int_of_float ((tmax -. tmin) /. width) in
    let counts = Array.make nwin 0 in
    Array.iter
      (fun p ->
        let i = int_of_float ((p.time -. tmin) /. width) in
        let i = min i (nwin - 1) in
        counts.(i) <- counts.(i) + 1)
      pts;
    List.init nwin (fun i -> (tmin +. (float_of_int i *. width), counts.(i)))
  end
