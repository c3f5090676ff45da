(* Prints the trace synthesis golden that a runtest rule diffs against
   test/trace_golden.txt: for each configuration below, the MD5 of
   [Trace.to_jsonl] of the synthesized trace, and of
   [Arrival.simulate]'s arrivals (instant bits and phase) and per-phase
   dwell times (bits), so any change to the draws, the arrival loop or
   the Zipf sampler shows as a changed line.

     dune exec test/trace_golden.exe > test/trace_golden.txt

   Regenerate it only when traces are meant to change. *)

open Workload

let configs =
  let p rate = Arrival.poisson ~rate in
  [
    ("hot_zipf", 1024, 1.1, p 96.0, 900.0, 1L);
    ("warm_cow", 256, 1.1, p 32.0, 450.0, 7L);
    ("evict_churn", 160, 1.1, p 4.0, 2250.0, -3L);
    ("n1-uniform", 1, 0.0, p 10.0, 300.0, 0L);
    ("n1-steep", 1, 2.5, p 10.0, 100.0, -1L);
    ("n100k-uniform", 100_000, 0.0, p 50.0, 100.0, 42L);
    ("n100k-a0.6", 100_000, 0.6, p 50.0, 100.0, -42L);
    ("n100k-a2.5", 100_000, 2.5, p 50.0, 100.0, Int64.min_int);
    ("n2", 2, 1.0, p 5.0, 200.0, Int64.max_int);
    ("bursty", 64, 0.8, Arrival.bursty ~rate:20.0 (), 600.0, 3L);
    ( "bursty-sharp",
      1000,
      1.5,
      Arrival.bursty ~rate:8.0 ~burst_ratio:20.0 ~duty:0.05 (),
      1800.0,
      -99L );
    ("bursty-uniform", 32, 0.0, Arrival.bursty ~rate:2.0 (), 3600.0, 11L);
    ("diurnal", 512, 1.1, Arrival.diurnal ~rate:4.0 ~period:3600.0 (), 7200.0, 5L);
    ("diurnal-short", 10, 2.0, Arrival.diurnal ~rate:2.0 ~period:600.0 (), 1200.0, -5L);
    ("diurnal-partial", 3, 0.3, Arrival.diurnal ~rate:30.0 (), 100.0, 17L);
    ("dense", 7, 1.7, p 1000.0, 20.0, 123456789L);
    ("sparse", 5, 1.0, p 0.5, 10.0, 2L);
    ("zero-horizon", 4096, 1.1, p 3.0, 0.0, 9L);
    ("bursty-n100k", 100_000, 1.1, Arrival.bursty ~rate:100.0 (), 60.0, -7777L);
    ("n3-steep", 3, 2.5, p 64.0, 500.0, 31L);
  ]

let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let arrivals_digest (s : Arrival.sim) =
  let b = Buffer.create (24 * Array.length s.arrivals) in
  Array.iter
    (fun (at, ph) -> Printf.bprintf b "%s %d\n" (bits at) ph)
    s.arrivals;
  Digest.to_hex (Digest.string (Buffer.contents b))

let dwell_digest (s : Arrival.sim) =
  Digest.to_hex
    (Digest.string
       (String.concat " " (Array.to_list (Array.map bits s.dwell_time))))

let () =
  List.iter
    (fun (name, functions, alpha, arrival, horizon, seed) ->
      let t = Trace.synthesize ~functions ~alpha ~arrival ~horizon ~seed in
      let s = Arrival.simulate arrival (Sim.Prng.create seed) ~horizon in
      Printf.printf "%s events=%d trace=%s arrivals=%s dwell=%s\n" name
        (Array.length t.events)
        (Digest.to_hex (Digest.string (Trace.to_jsonl t)))
        (arrivals_digest s) (dwell_digest s))
    configs
