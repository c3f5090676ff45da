(* A cutpoint table (Chen & Asau 1974) over [n + 1] buckets: a draw [u]
   falls in bucket [int_of_float (u *. scale)], and [guide.(j)] is the
   first rank whose cumulative weight falls in bucket [j] or later.
   Every rank before [guide.(j)] has its weight in an earlier bucket,
   hence below any draw in bucket [j] ([*. scale] is monotone), so
   [guide.(j)] is never past the answer and a walk forward from it is
   exact; on average it takes about one step. *)
type t = {
  alpha : float;
  cdf : float array;
  total : float;
  guide : int array;
  scale : float;  (* buckets per unit of cumulative weight *)
}

let create ~alpha ~n =
  if n < 1 then invalid_arg "Zipf.create: need at least one function";
  if not (Float.is_finite alpha) || alpha < 0.0 then
    invalid_arg "Zipf.create: alpha must be finite and non-negative";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) alpha);
    cdf.(r) <- !acc
  done;
  let total = !acc in
  let m = n + 1 in
  let scale = float_of_int m /. total in
  let guide = Array.make m (n - 1) in
  let j = ref 0 in
  for r = 0 to n - 1 do
    let bucket = int_of_float (cdf.(r) *. scale) in
    while !j <= bucket && !j < m do
      guide.(!j) <- r;
      incr j
    done
  done;
  { alpha; cdf; total; guide; scale }

let n t = Array.length t.cdf

let alpha t = t.alpha

let weight t r =
  if r < 0 || r >= Array.length t.cdf then invalid_arg "Zipf.weight: rank out of range";
  let below = if r = 0 then 0.0 else t.cdf.(r - 1) in
  (t.cdf.(r) -. below) /. t.total

(* The first rank whose cumulative weight exceeds the draw, or the last
   rank if none does, as a binary search over [cdf] would return. *)
let sample t rng =
  (* [Sim.Prng.float] written out, so the draw is never boxed. *)
  let u = Float.of_int (Sim.Prng.bits53 rng) *. 0x1p-53 *. t.total in
  let cdf = t.cdf in
  let last = Array.length cdf - 1 in
  let top = Array.length t.guide - 1 in
  let j = int_of_float (u *. t.scale) in
  let r = ref t.guide.(if j > top then top else j) in
  while !r < last && cdf.(!r) <= u do
    incr r
  done;
  !r
