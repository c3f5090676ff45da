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

(* The arrival loop writes each instant straight into a flat float
   buffer (and, for [simulate] only, its phase into an int buffer)
   rather than consing boxed (time, phase) pairs: [Trace.synthesize]
   reads [at.(0 .. len - 1)] in one pass. *)
type run = {
  mutable at : float array;
  mutable phase : int array;  (* [||] unless phases are recorded *)
  mutable len : int;
  dwell : float array;
}

(* Sized from the expected count plus four standard deviations, so a
   Poisson horizon seldom grows the buffer at all. *)
let initial_capacity t horizon =
  let e = mean_rate t *. horizon in
  if e < 1e7 then 16 + int_of_float (e +. (4.0 *. sqrt e)) else 1 lsl 23

let[@inline] push r ~record at ph =
  let cap = Array.length r.at in
  if r.len = cap then begin
    let at' = Array.create_float (2 * cap) in
    Array.blit r.at 0 at' 0 cap;
    r.at <- at';
    if record then begin
      let phase' = Array.make (2 * cap) 0 in
      Array.blit r.phase 0 phase' 0 cap;
      r.phase <- phase'
    end
  end;
  r.at.(r.len) <- at;
  if record then r.phase.(r.len) <- ph;
  r.len <- r.len + 1

(* An exponential draw over [Sim.Prng.bits53] ([Sim.Prng.float] written
   out): a float returned from another unit would be boxed once per
   arrival. *)
let[@inline] exponential rng ~mean =
  -.mean *. log (1.0 -. (Float.of_int (Sim.Prng.bits53 rng) *. 0x1p-53))

let[@inline] dwell_of rng (ph : phase) =
  if ph.dwell = infinity then infinity
  else if ph.random_dwell then exponential rng ~mean:ph.dwell
  else ph.dwell

let run ~record t rng ~horizon =
  if not (Float.is_finite horizon) || horizon < 0.0 then
    invalid_arg "Arrival.simulate: horizon must be finite and non-negative";
  let phases =
    match t with
    | Poisson { rate } -> [| { rate; dwell = infinity; random_dwell = false } |]
    | Mmpp { phases } -> phases
  in
  let k = Array.length phases in
  let cap = initial_capacity t horizon in
  let r =
    {
      at = Array.create_float cap;
      phase = (if record then Array.make cap 0 else [||]);
      len = 0;
      dwell = Array.make k 0.0;
    }
  in
  let dwell = r.dwell in
  let now = ref 0.0 in
  let p = ref 0 in
  let phase_end = ref (dwell_of rng phases.(0)) in
  while !now < horizon do
    let ph = phases.(!p) in
    let boundary = Float.min !phase_end horizon in
    if ph.rate <= 0.0 then begin
      dwell.(!p) <- dwell.(!p) +. (boundary -. !now);
      now := boundary
    end
    else begin
      let next = !now +. exponential rng ~mean:(1.0 /. ph.rate) in
      if next < boundary then begin
        dwell.(!p) <- dwell.(!p) +. (next -. !now);
        now := next;
        push r ~record next !p
      end
      else begin
        (* Poisson memorylessness makes redrawing at the boundary exact. *)
        dwell.(!p) <- dwell.(!p) +. (boundary -. !now);
        now := boundary
      end
    end;
    if !now >= !phase_end && !now < horizon then begin
      p := (!p + 1) mod k;
      phase_end := !now +. dwell_of rng phases.(!p)
    end
  done;
  r

let simulate t rng ~horizon =
  let r = run ~record:true t rng ~horizon in
  {
    arrivals = Array.init r.len (fun i -> (r.at.(i), r.phase.(i)));
    dwell_time = r.dwell;
  }

let instants t rng ~horizon =
  let r = run ~record:false t rng ~horizon in
  (r.at, r.len)

let times t rng ~horizon =
  let at, len = instants t rng ~horizon in
  Array.sub at 0 len
