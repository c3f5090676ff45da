type t = {
  mutable data : float array;
  mutable size : int;
  mutable sum : float;
  mutable sum_sq : float;
  (* Sorted view computed lazily and invalidated on insert. *)
  mutable sorted : float array option;
}

let create () =
  { data = [||]; size = 0; sum = 0.0; sum_sq = 0.0; sorted = None }

let add t x =
  if t.size = Array.length t.data then begin
    let cap = max 64 (2 * Array.length t.data) in
    let data = Array.make cap 0.0 in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sum <- t.sum +. x;
  t.sum_sq <- t.sum_sq +. (x *. x);
  t.sorted <- None

let count t = t.size
let total t = t.sum
let mean t = if t.size = 0 then 0.0 else t.sum /. float_of_int t.size

let stddev t =
  if t.size < 2 then 0.0
  else
    let n = float_of_int t.size in
    let var = (t.sum_sq -. (t.sum *. t.sum /. n)) /. (n -. 1.0) in
    sqrt (Float.max 0.0 var)

let require_nonempty t name =
  if t.size = 0 then invalid_arg (Printf.sprintf "Summary.%s: empty" name)

let sorted t =
  match t.sorted with
  | Some s -> s
  | None ->
      let s = Array.sub t.data 0 t.size in
      Array.sort compare s;
      t.sorted <- Some s;
      s

let min_value t =
  require_nonempty t "min_value";
  (sorted t).(0)

let max_value t =
  require_nonempty t "max_value";
  (sorted t).(t.size - 1)

let percentile t p =
  require_nonempty t "percentile";
  if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: out of range";
  let s = sorted t in
  let rank = p /. 100.0 *. float_of_int (t.size - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then s.(lo)
  else
    let w = rank -. float_of_int lo in
    ((1.0 -. w) *. s.(lo)) +. (w *. s.(hi))

let samples t = Array.sub t.data 0 t.size

type digest = {
  n : int;
  mean : float;
  p01 : float;
  p25 : float;
  p50 : float;
  p75 : float;
  p99 : float;
  min : float;
  max : float;
}

let digest t =
  require_nonempty t "digest";
  {
    n = t.size;
    mean = mean t;
    p01 = percentile t 1.0;
    p25 = percentile t 25.0;
    p50 = percentile t 50.0;
    p75 = percentile t 75.0;
    p99 = percentile t 99.0;
    min = min_value t;
    max = max_value t;
  }
