type phase = { rate : float; dwell : float; random_dwell : bool }

type t = Poisson of { rate : float } | Mmpp of { phases : phase array }

let check_rate name r =
  if not (Float.is_finite r) || r <= 0.0 then
    invalid_arg (name ^ ": rate must be finite and positive")

let poisson ~rate =
  check_rate "Arrival.poisson" rate;
  Poisson { rate }

let bursty ~rate ?(burst_ratio = 8.0) ?(duty = 0.1) () =
  check_rate "Arrival.bursty" rate;
  if burst_ratio < 1.0 then
    invalid_arg "Arrival.bursty: burst_ratio must be >= 1";
  if duty <= 0.0 || duty >= 1.0 then
    invalid_arg "Arrival.bursty: duty must be in (0, 1)";
  (* Solve base so that duty-weighted mean equals [rate]. *)
  let base = rate /. (1.0 -. duty +. (duty *. burst_ratio)) in
  Mmpp
    {
      phases =
        [|
          { rate = base; dwell = (1.0 -. duty) *. 60.0; random_dwell = true };
          { rate = base *. burst_ratio; dwell = duty *. 60.0; random_dwell = true };
        |];
    }

let diurnal ~rate ?(period = 14400.0) () =
  check_rate "Arrival.diurnal" rate;
  if period <= 0.0 then invalid_arg "Arrival.diurnal: period must be positive";
  let k = 24.0 in
  Mmpp
    {
      phases =
        Array.init 24 (fun i ->
            {
              rate =
                rate
                *. (1.0 +. 0.6 *. sin (2.0 *. Float.pi *. float_of_int i /. k));
              dwell = period /. k;
              random_dwell = false;
            });
    }

let mean_rate = function
  | Poisson { rate } -> rate
  | Mmpp { phases } ->
      let num = ref 0.0 and den = ref 0.0 in
      Array.iter
        (fun p ->
          num := !num +. (p.rate *. p.dwell);
          den := !den +. p.dwell)
        phases;
      !num /. !den

let describe = function
  | Poisson _ -> "poisson"
  | Mmpp { phases } -> Printf.sprintf "mmpp-%dp" (Array.length phases)

type sim = { arrivals : (float * int) array; dwell_time : float array }

let simulate t rng ~horizon =
  if not (Float.is_finite horizon) || horizon < 0.0 then
    invalid_arg "Arrival.simulate: horizon must be finite and non-negative";
  let phases =
    match t with
    | Poisson { rate } -> [| { rate; dwell = infinity; random_dwell = false } |]
    | Mmpp { phases } -> phases
  in
  let k = Array.length phases in
  let dwell_time = Array.make k 0.0 in
  let acc = ref [] in
  let count = ref 0 in
  let now = ref 0.0 in
  let p = ref 0 in
  let dwell_of ph =
    if ph.dwell = infinity then infinity
    else if ph.random_dwell then Sim.Prng.exponential rng ~mean:ph.dwell
    else ph.dwell
  in
  let phase_end = ref (dwell_of phases.(0)) in
  while !now < horizon do
    let ph = phases.(!p) in
    let boundary = Float.min !phase_end horizon in
    if ph.rate <= 0.0 then begin
      dwell_time.(!p) <- dwell_time.(!p) +. (boundary -. !now);
      now := boundary
    end
    else begin
      let next = !now +. Sim.Prng.exponential rng ~mean:(1.0 /. ph.rate) in
      if next < boundary then begin
        dwell_time.(!p) <- dwell_time.(!p) +. (next -. !now);
        now := next;
        acc := (next, !p) :: !acc;
        incr count
      end
      else begin
        (* Poisson memorylessness makes redrawing at the boundary exact. *)
        dwell_time.(!p) <- dwell_time.(!p) +. (boundary -. !now);
        now := boundary
      end
    end;
    if !now >= !phase_end && !now < horizon then begin
      p := (!p + 1) mod k;
      phase_end := !now +. dwell_of phases.(!p)
    end
  done;
  let arrivals = Array.make !count (0.0, 0) in
  List.iteri (fun i a -> arrivals.(!count - 1 - i) <- a) !acc;
  { arrivals; dwell_time }

let times t rng ~horizon =
  Array.map fst (simulate t rng ~horizon).arrivals
