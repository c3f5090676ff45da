(* Statistical property battery for the workload plane: the generators'
   empirical behaviour must match their nominal parameters, and traces
   must be seed-deterministic and JSONL-roundtrippable. Randomness is
   drawn from the simulator's own splitmix64 stream (Sim.Prng), so every
   assertion is a deterministic function of the base seed;
   SEUSS_PROP_SEED overrides it (see Prop_seed). *)

let base_seed = Prop_seed.base ~default:29L

let rng_for label =
  Sim.Prng.create (Int64.add base_seed (Int64.of_int (Hashtbl.hash label)))

(* {1 Zipf} *)

let test_zipf_validation () =
  Alcotest.check_raises "n = 0 rejected"
    (Invalid_argument "Zipf.create: need at least one function") (fun () ->
      ignore (Workload.Zipf.create ~alpha:1.0 ~n:0));
  let z = Workload.Zipf.create ~alpha:0.0 ~n:5 in
  (* alpha 0 is uniform. *)
  for r = 0 to 4 do
    let w = Workload.Zipf.weight z r in
    if abs_float (w -. 0.2) > 1e-9 then
      Alcotest.failf "uniform weight %d = %f" r w
  done

let test_zipf_weights_normalized =
  QCheck.Test.make ~name:"zipf weights sum to 1 and rank-decrease" ~count:50
    QCheck.(pair (float_range 0.0 2.5) (int_range 1 400))
    (fun (alpha, n) ->
      let z = Workload.Zipf.create ~alpha ~n in
      let sum = ref 0.0 and ok = ref true in
      for r = 0 to n - 1 do
        let w = Workload.Zipf.weight z r in
        sum := !sum +. w;
        if r > 0 && w > Workload.Zipf.weight z (r - 1) +. 1e-12 then
          ok := false
      done;
      !ok && abs_float (!sum -. 1.0) < 1e-9)

let test_zipf_samples_in_range =
  QCheck.Test.make ~name:"zipf samples stay in [0, n)" ~count:50
    QCheck.(pair (float_range 0.0 2.0) (int_range 1 50))
    (fun (alpha, n) ->
      let z = Workload.Zipf.create ~alpha ~n in
      let rng = rng_for "zipf-range" in
      let ok = ref true in
      for _ = 1 to 500 do
        let r = Workload.Zipf.sample z rng in
        if r < 0 || r >= n then ok := false
      done;
      !ok)

(* Empirical rank-frequency slope: draw many samples, least-squares fit
   log(freq) against log(rank+1) over the well-populated head ranks; the
   slope must recover -alpha. *)
let zipf_slope ~alpha ~n ~draws rng =
  let z = Workload.Zipf.create ~alpha ~n in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Workload.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  let head = min 16 n in
  let xs = ref [] in
  for r = 0 to head - 1 do
    if counts.(r) > 0 then
      xs :=
        ( log (float_of_int (r + 1)),
          log (float_of_int counts.(r) /. float_of_int draws) )
        :: !xs
  done;
  let pts = !xs in
  let m = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
  ((m *. sxy) -. (sx *. sy)) /. ((m *. sxx) -. (sx *. sx))

let test_zipf_slope () =
  List.iter
    (fun alpha ->
      let rng = rng_for (Printf.sprintf "zipf-slope-%f" alpha) in
      let slope = zipf_slope ~alpha ~n:256 ~draws:200_000 rng in
      if abs_float (slope +. alpha) > 0.1 then
        Alcotest.failf "alpha %.2f: fitted slope %.4f (expected %.4f +- 0.1)"
          alpha slope (-.alpha))
    [ 0.8; 1.1; 1.5 ]

(* {1 Arrival processes} *)

(* Poisson inter-arrivals: mean 1/rate and coefficient of variation 1. *)
let test_poisson_moments () =
  let rate = 50.0 and horizon = 2_000.0 in
  let rng = rng_for "poisson-moments" in
  let times =
    Workload.Arrival.times (Workload.Arrival.poisson ~rate) rng ~horizon
  in
  let n = Array.length times in
  if n < 50_000 then Alcotest.failf "too few arrivals: %d" n;
  let gaps = Array.init (n - 1) (fun i -> times.(i + 1) -. times.(i)) in
  let m = Array.fold_left ( +. ) 0.0 gaps /. float_of_int (n - 1) in
  let var =
    Array.fold_left (fun a g -> a +. (((g -. m) ** 2.0) /. float_of_int (n - 1)))
      0.0 gaps
  in
  let cv = sqrt var /. m in
  if abs_float ((m *. rate) -. 1.0) > 0.03 then
    Alcotest.failf "mean gap %.6f, expected %.6f +- 3%%" m (1.0 /. rate);
  if abs_float (cv -. 1.0) > 0.05 then
    Alcotest.failf "CV %.4f, expected 1 +- 0.05" cv

let test_arrivals_sorted_and_bounded =
  QCheck.Test.make ~name:"arrivals are sorted and inside [0, horizon)"
    ~count:40
    QCheck.(pair (float_range 0.5 40.0) (int_range 1 3))
    (fun (rate, pick) ->
      let arrival =
        match pick with
        | 1 -> Workload.Arrival.poisson ~rate
        | 2 -> Workload.Arrival.bursty ~rate ()
        | _ -> Workload.Arrival.diurnal ~rate ()
      in
      let horizon = 200.0 in
      let rng = rng_for "sorted" in
      let times = Workload.Arrival.times arrival rng ~horizon in
      let ok = ref true in
      Array.iteri
        (fun i t ->
          if t < 0.0 || t >= horizon then ok := false;
          if i > 0 && t < times.(i - 1) then ok := false)
        times;
      !ok)

(* MMPP phase-conditional rates: arrivals attributed to a phase, divided
   by the time spent in it, recover that phase's nominal rate. *)
let test_mmpp_phase_rates () =
  let arrival = Workload.Arrival.bursty ~rate:10.0 () in
  let phases =
    match arrival with
    | Workload.Arrival.Mmpp { phases } -> phases
    | Workload.Arrival.Poisson _ -> Alcotest.fail "bursty must be MMPP"
  in
  let rng = rng_for "mmpp-rates" in
  let sim = Workload.Arrival.simulate arrival rng ~horizon:20_000.0 in
  let per_phase = Array.make (Array.length phases) 0 in
  Array.iter
    (fun (_, phase) -> per_phase.(phase) <- per_phase.(phase) + 1)
    sim.Workload.Arrival.arrivals;
  Array.iteri
    (fun i (p : Workload.Arrival.phase) ->
      let dwell = sim.Workload.Arrival.dwell_time.(i) in
      if dwell <= 0.0 then Alcotest.failf "phase %d never visited" i;
      let empirical = float_of_int per_phase.(i) /. dwell in
      if abs_float (empirical -. p.Workload.Arrival.rate) /. p.Workload.Arrival.rate > 0.1
      then
        Alcotest.failf "phase %d: empirical rate %.3f, nominal %.3f +- 10%%" i
          empirical p.Workload.Arrival.rate)
    phases;
  (* The burst phase must actually be rarer but hotter. *)
  let base = phases.(0) and burst = phases.(1) in
  Alcotest.(check bool) "burst rate is 8x base" true
    (abs_float
       ((burst.Workload.Arrival.rate /. base.Workload.Arrival.rate) -. 8.0)
    < 1e-6)

(* Diurnal arrivals over whole periods preserve the requested mean, and
   the phase rates trace the sinusoid. *)
let test_diurnal_mean_preserved () =
  let rate = 5.0 in
  let arrival = Workload.Arrival.diurnal ~rate ~period:3_600.0 () in
  Alcotest.(check bool) "nominal mean preserved" true
    (abs_float (Workload.Arrival.mean_rate arrival -. rate) < 1e-9);
  let rng = rng_for "diurnal-mean" in
  let horizon = 4.0 *. 3_600.0 in
  let times = Workload.Arrival.times arrival rng ~horizon in
  let empirical = float_of_int (Array.length times) /. horizon in
  if abs_float (empirical -. rate) /. rate > 0.05 then
    Alcotest.failf "empirical mean %.3f, requested %.3f +- 5%%" empirical rate

let test_mean_rate_bursty_preserved =
  QCheck.Test.make ~name:"bursty construction preserves the mean rate"
    ~count:100
    QCheck.(triple (float_range 0.1 50.0) (float_range 2.0 20.0)
              (float_range 0.02 0.5))
    (fun (rate, burst_ratio, duty) ->
      let a = Workload.Arrival.bursty ~rate ~burst_ratio ~duty () in
      abs_float (Workload.Arrival.mean_rate a -. rate) < 1e-6 *. rate)

(* {1 Trace determinism and codec} *)

let small_arrival = Workload.Arrival.bursty ~rate:8.0 ()

let synth seed =
  Workload.Trace.synthesize ~functions:50 ~alpha:1.1 ~arrival:small_arrival
    ~horizon:120.0 ~seed

let test_trace_seed_determinism () =
  let a = synth 5L and b = synth 5L in
  Alcotest.(check bool) "equal seeds give equal traces" true
    (Workload.Trace.equal a b);
  Alcotest.(check bool) "equal seeds give byte-identical JSONL" true
    (String.equal (Workload.Trace.to_jsonl a) (Workload.Trace.to_jsonl b))

let test_trace_seed_sensitivity () =
  let a = synth 5L in
  let distinct =
    List.for_all
      (fun s -> not (Workload.Trace.equal a (synth s)))
      [ 6L; 7L; 1234L ]
  in
  Alcotest.(check bool) "distinct seeds give distinct traces" true distinct

let test_trace_roundtrip =
  QCheck.Test.make ~name:"trace JSONL roundtrip is lossless" ~count:30
    QCheck.(
      quad (int_range 1 80) (float_range 0.0 2.0) (float_range 0.5 20.0)
        (int_range 0 10_000))
    (fun (functions, alpha, rate, seed) ->
      let t =
        Workload.Trace.synthesize ~functions ~alpha
          ~arrival:(Workload.Arrival.poisson ~rate)
          ~horizon:60.0 ~seed:(Int64.of_int seed)
      in
      let jsonl = Workload.Trace.to_jsonl t in
      match Workload.Trace.of_jsonl jsonl with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok t' ->
          Workload.Trace.equal t t'
          && String.equal jsonl (Workload.Trace.to_jsonl t'))

let test_trace_rejects_garbage () =
  List.iter
    (fun (label, s) ->
      match Workload.Trace.of_jsonl s with
      | Ok _ -> Alcotest.failf "%s decoded" label
      | Error _ -> ())
    [
      ("empty", "");
      ("not json", "hello\n");
      ( "wrong schema",
        "{\"schema\":\"bogus/9\",\"functions\":1,\"alpha\":1,\"horizon\":1,\
         \"arrival\":\"poisson\",\"rate\":1,\"seed\":\"1\",\"events\":0}\n" );
      ( "fn out of range",
        "{\"schema\":\"seuss-load-trace/1\",\"functions\":1,\"alpha\":1,\
         \"horizon\":10,\"arrival\":\"poisson\",\"rate\":1,\"seed\":\"1\",\
         \"events\":1}\n{\"at\":0.5,\"fn\":7}\n" );
      ( "event count mismatch",
        "{\"schema\":\"seuss-load-trace/1\",\"functions\":1,\"alpha\":1,\
         \"horizon\":10,\"arrival\":\"poisson\",\"rate\":1,\"seed\":\"1\",\
         \"events\":2}\n{\"at\":0.5,\"fn\":0}\n" );
    ]

let test_trace_save_load () =
  let t = synth 9L in
  let path = Filename.temp_file "seuss-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.Trace.save ~path t;
      match Workload.Trace.load ~path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok t' ->
          Alcotest.(check bool) "save/load roundtrip" true
            (Workload.Trace.equal t t'))

(* Changing the function-set size must not shift arrival instants: the
   two PRNG streams are split before use. *)
let test_trace_arrivals_independent_of_functions () =
  let a =
    Workload.Trace.synthesize ~functions:10 ~alpha:1.0
      ~arrival:small_arrival ~horizon:120.0 ~seed:3L
  and b =
    Workload.Trace.synthesize ~functions:500 ~alpha:1.0
      ~arrival:small_arrival ~horizon:120.0 ~seed:3L
  in
  Alcotest.(check int) "same arrival count"
    (Array.length a.Workload.Trace.events)
    (Array.length b.Workload.Trace.events);
  Array.iteri
    (fun i (ea : Workload.Trace.event) ->
      let eb = b.Workload.Trace.events.(i) in
      if ea.Workload.Trace.at <> eb.Workload.Trace.at then
        Alcotest.failf "arrival %d moved: %.9f vs %.9f" i
          ea.Workload.Trace.at eb.Workload.Trace.at)
    a.Workload.Trace.events

(* {1 Function corpus} *)

let test_fnset_profile_split () =
  let counts = Hashtbl.create 3 in
  for i = 0 to 999 do
    let p = Workload.Fnset.profile_name (Workload.Fnset.profile_of_index i) in
    Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p))
  done;
  let get p = Option.value ~default:0 (Hashtbl.find_opt counts p) in
  Alcotest.(check int) "small 70%" 700 (get "small");
  Alcotest.(check int) "medium 25%" 250 (get "medium");
  Alcotest.(check int) "large 5%" 50 (get "large")

let test_fnset_sources_parse_and_scale () =
  (* Sources must be valid MiniJS, and bigger profiles must carry
     bigger ASTs (that is what makes their cold path cost more). *)
  let node_count i =
    Interp.Ast.node_count (Interp.Parser.parse (Workload.Fnset.source i))
  in
  let small = node_count 0 and medium = node_count 14 and large = node_count 19 in
  Alcotest.(check bool) "profile sizes strictly grow" true
    (small < medium && medium < large);
  Alcotest.(check bool) "ids namespaced" true
    (String.length (Workload.Fnset.fn_id 7) > 3
    && String.sub (Workload.Fnset.fn_id 7) 0 3 = "zf-")

(* {1 Open-loop replay} *)

let test_replay_open_loop () =
  (* Three arrivals 0.1 s apart, each served in 0.25 s: an open-loop
     replayer overlaps them (closed-loop would serialize), so the peak
     backlog must reach 3 and every latency must be the service time. *)
  let trace =
    {
      Workload.Trace.functions = 2;
      alpha = 0.0;
      horizon = 1.0;
      arrival = "poisson";
      rate = 3.0;
      seed = 0L;
      events =
        [|
          { Workload.Trace.at = 0.0; fn = 0 };
          { Workload.Trace.at = 0.1; fn = 1 };
          { Workload.Trace.at = 0.2; fn = 0 };
        |];
    }
  in
  let engine = Sim.Engine.create ~seed:1L () in
  let result = ref None in
  Sim.Engine.spawn engine ~name:"replay-test" (fun () ->
      result :=
        Some
          (Workload.Replay.run
             ~invoke:(fun ~fn:_ ->
               Sim.Engine.sleep 0.25;
               Ok ())
             trace));
  Sim.Engine.run engine;
  match !result with
  | None -> Alcotest.fail "replay did not complete"
  | Some r ->
      Alcotest.(check int) "invocations" 3 r.Workload.Replay.invocations;
      Alcotest.(check int) "ok" 3 r.Workload.Replay.ok;
      Alcotest.(check int) "errors" 0 r.Workload.Replay.errors;
      Alcotest.(check int) "peak backlog overlaps all three" 3
        r.Workload.Replay.max_in_flight;
      Alcotest.(check (float 1e-9)) "makespan = last arrival + service" 0.45
        r.Workload.Replay.makespan;
      Array.iter
        (fun l ->
          if abs_float (l -. 0.25) > 1e-9 then
            Alcotest.failf "latency %.6f, expected 0.25" l)
        (Stats.Summary.samples r.Workload.Replay.latencies)

let test_replay_counts_errors () =
  let trace =
    {
      Workload.Trace.functions = 1;
      alpha = 0.0;
      horizon = 1.0;
      arrival = "poisson";
      rate = 2.0;
      seed = 0L;
      events =
        [|
          { Workload.Trace.at = 0.0; fn = 0 };
          { Workload.Trace.at = 0.5; fn = 0 };
        |];
    }
  in
  let engine = Sim.Engine.create ~seed:1L () in
  let result = ref None in
  let calls = ref 0 in
  Sim.Engine.spawn engine ~name:"replay-err" (fun () ->
      result :=
        Some
          (Workload.Replay.run
             ~invoke:(fun ~fn:_ ->
               incr calls;
               if !calls = 1 then Error "boom" else Ok ())
             trace));
  Sim.Engine.run engine;
  match !result with
  | None -> Alcotest.fail "replay did not complete"
  | Some r ->
      Alcotest.(check int) "ok" 1 r.Workload.Replay.ok;
      Alcotest.(check int) "errors counted, not propagated" 1
        r.Workload.Replay.errors

let () =
  let case name f = Alcotest.test_case name `Quick f in
  let qcase = QCheck_alcotest.to_alcotest in
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          case "validation and uniform limit" test_zipf_validation;
          qcase test_zipf_weights_normalized;
          qcase test_zipf_samples_in_range;
          case "empirical rank-frequency slope" test_zipf_slope;
        ] );
      ( "arrival",
        [
          case "poisson moments" test_poisson_moments;
          qcase test_arrivals_sorted_and_bounded;
          case "mmpp phase-conditional rates" test_mmpp_phase_rates;
          case "diurnal mean preserved" test_diurnal_mean_preserved;
          qcase test_mean_rate_bursty_preserved;
        ] );
      ( "trace",
        [
          case "seed determinism" test_trace_seed_determinism;
          case "seed sensitivity" test_trace_seed_sensitivity;
          qcase test_trace_roundtrip;
          case "rejects garbage" test_trace_rejects_garbage;
          case "save/load" test_trace_save_load;
          case "arrivals independent of function set"
            test_trace_arrivals_independent_of_functions;
        ] );
      ( "fnset",
        [
          case "profile split" test_fnset_profile_split;
          case "sources parse and scale" test_fnset_sources_parse_and_scale;
        ] );
      ( "replay",
        [
          case "open loop semantics" test_replay_open_loop;
          case "error counting" test_replay_counts_errors;
        ] );
    ]
