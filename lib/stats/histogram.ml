type t = {
  lo : float;
  bins_per_decade : int;
  counts : int array;
  mutable total : int;
}

let create ?(lo = 1e-4) ?(hi = 1e3) ?(bins_per_decade = 10) () =
  if lo <= 0.0 || hi <= lo then invalid_arg "Histogram.create: bad range";
  let decades = log10 hi -. log10 lo in
  let nbins = int_of_float (ceil (decades *. float_of_int bins_per_decade)) in
  { lo; bins_per_decade; counts = Array.make (max 1 nbins) 0; total = 0 }

let bin_count t = Array.length t.counts

let index_of t x =
  if x <= t.lo then 0
  else
    let i =
      int_of_float (floor (log10 (x /. t.lo) *. float_of_int t.bins_per_decade))
    in
    (* Monomorphic clamp: [min] here is the polymorphic compare. *)
    let last = bin_count t - 1 in
    if i > last then last else i

let add t x =
  let i = index_of t x in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1

let count t = t.total

let bin_bounds t i =
  if i < 0 || i >= bin_count t then invalid_arg "Histogram.bin_bounds";
  let decade b = t.lo *. (10.0 ** (float_of_int b /. float_of_int t.bins_per_decade)) in
  (decade i, decade (i + 1))

let bin_value t i =
  if i < 0 || i >= bin_count t then invalid_arg "Histogram.bin_value";
  t.counts.(i)

let same_layout a b =
  a.lo = b.lo && a.bins_per_decade = b.bins_per_decade
  && bin_count a = bin_count b

let merge t ~from =
  if not (same_layout t from) then
    invalid_arg "Histogram.merge: layout mismatch";
  for i = 0 to bin_count t - 1 do
    t.counts.(i) <- t.counts.(i) + from.counts.(i)
  done;
  t.total <- t.total + from.total

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: q in [0,1]";
  if t.total = 0 then 0.0
  else begin
    let rank = int_of_float (Float.round (q *. float_of_int (t.total - 1))) + 1 in
    let result = ref (snd (bin_bounds t (bin_count t - 1))) in
    (try
       let seen = ref 0 in
       for i = 0 to bin_count t - 1 do
         seen := !seen + t.counts.(i);
         if !seen >= rank then begin
           result := snd (bin_bounds t i);
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to bin_count t - 1 do
    let lo, hi = bin_bounds t i in
    acc := f !acc ~lo ~hi ~count:t.counts.(i)
  done;
  !acc
