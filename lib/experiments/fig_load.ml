type arm = {
  backend : string;
  invocations : int;
  ok : int;
  errors : int;
  mean_ms : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  p999_ms : float;
  bd_p99_ms : float;
  bd_p999_ms : float;
  achieved_rps : float;
  max_in_flight : int;
  mix : Harness.mix;
}

type point = { offered_rps : float; trace_events : int; arms : arm list }

type result = {
  functions : int;
  alpha : float;
  arrival : string;
  horizon : float;
  seed : int64;
  points : point list;
  timeline : string;
}

let arrival_names = [ "poisson"; "bursty"; "diurnal" ]

let arrival_of_name name ~rate =
  match name with
  | "poisson" -> Workload.Arrival.poisson ~rate
  | "bursty" -> Workload.Arrival.bursty ~rate ()
  | "diurnal" -> Workload.Arrival.diurnal ~rate ()
  | s ->
      invalid_arg
        (Printf.sprintf "Fig_load: unknown arrival %S (expected %s)" s
           (String.concat "/" arrival_names))

(* {1 One arm} *)

(* The four arms by name; the SEUSS node takes the run's overrides. *)
let backends () =
  [
    ("seuss", Harness.Seuss (Harness.armed_config Seuss.Config.default));
    ("linux", Harness.Linux);
    ("firecracker", Harness.Pool Baselines.Pool_node.Firecracker);
    ("process", Harness.Pool Baselines.Pool_node.Process);
  ]

(* Replay [trace] against one backend in a fresh simulation. With
   [timeline] the resource sampler runs for the whole replay (it draws
   nothing, so arming it perturbs no measured quantity) and the rendered
   timeline is returned alongside the arm. *)
let run_arm ~seed ~timeline trace (backend_name, backend) =
  let timeline =
    if timeline then Some (trace.Workload.Trace.horizon /. 256.0) else None
  in
  let r = Harness.replay ~seed ?timeline backend trace in
  let res = r.Harness.result in
  let lat = res.Workload.Replay.latencies in
  let bd_p99_ms, bd_p999_ms =
    match r.Harness.tails with
    | None -> (0.0, 0.0)
    | Some t -> (t.Obs.Breakdown.p99 *. 1e3, t.Obs.Breakdown.p999 *. 1e3)
  in
  ( {
      backend = backend_name;
      invocations = res.Workload.Replay.invocations;
      ok = res.Workload.Replay.ok;
      errors = res.Workload.Replay.errors;
      mean_ms = Stats.Summary.mean lat *. 1e3;
      p50_ms = Harness.percentile_ms lat 50.0;
      p90_ms = Harness.percentile_ms lat 90.0;
      p99_ms = Harness.percentile_ms lat 99.0;
      p999_ms = Harness.percentile_ms lat 99.9;
      bd_p99_ms;
      bd_p999_ms;
      achieved_rps = res.Workload.Replay.achieved_rps;
      max_in_flight = res.Workload.Replay.max_in_flight;
      mix = r.Harness.mix;
    },
    if Option.is_some timeline then Seuss.Timeline.render r.Harness.timeline
    else "" )

(* {1 The sweep} *)

let default_hours = 8.0
let default_functions = 1024
let default_alpha = 1.1
let default_arrival = "diurnal"
(* The top rate is past the Firecracker arm's cold-start capacity
   (~1.3 creations/s) at the diurnal crest, so the sweep shows its
   open-loop meltdown while the other arms stay comfortably stable. *)
let default_rps = [ 0.5; 2.0; 8.0 ]

let run ?(functions = default_functions) ?(alpha = default_alpha)
    ?(arrival = default_arrival) ?(hours = default_hours) ?(rps = default_rps)
    ?(seed = 11L) () =
  if functions < 1 then invalid_arg "Fig_load.run: need at least one function";
  if not (Float.is_finite hours) || hours <= 0.0 then
    invalid_arg "Fig_load.run: hours must be positive";
  if rps = [] then invalid_arg "Fig_load.run: need at least one offered rate";
  List.iter
    (fun r ->
      if not (Float.is_finite r) || r <= 0.0 then
        invalid_arg "Fig_load.run: offered rates must be positive")
    rps;
  if not (List.mem arrival arrival_names) then
    ignore (arrival_of_name arrival ~rate:1.0);
  let horizon = hours *. 3600.0 in
  let top_rps = List.fold_left Float.max neg_infinity rps in
  let backends = backends () in
  let timeline = ref "" in
  let points =
    List.map
      (fun offered ->
        let trace =
          Workload.Trace.synthesize ~functions ~alpha
            ~arrival:(arrival_of_name arrival ~rate:offered)
            ~horizon ~seed
        in
        let arms =
          List.map
            (fun ((name, _) as backend) ->
              let want_timeline = name = "seuss" && offered = top_rps in
              let arm, tl = run_arm ~seed ~timeline:want_timeline trace backend in
              if want_timeline then timeline := tl;
              arm)
            backends
        in
        {
          offered_rps = offered;
          trace_events = Array.length trace.Workload.Trace.events;
          arms;
        })
      rps
  in
  {
    functions;
    alpha;
    arrival;
    horizon;
    seed;
    points;
    timeline = !timeline;
  }

(* Replay an externally supplied trace (e.g. loaded from JSONL) as a
   single sweep point against every backend. *)
let run_trace ?(seed = 11L) trace =
  let arms =
    List.map
      (fun b -> fst (run_arm ~seed ~timeline:false trace b))
      (backends ())
  in
  {
    functions = trace.Workload.Trace.functions;
    alpha = trace.Workload.Trace.alpha;
    arrival = trace.Workload.Trace.arrival;
    horizon = trace.Workload.Trace.horizon;
    seed;
    points =
      [
        {
          offered_rps = trace.Workload.Trace.rate;
          trace_events = Array.length trace.Workload.Trace.events;
          arms;
        };
      ];
    timeline = "";
  }

(* {1 Reporting} *)

let report r =
  let open Report in
  let ms2 ?head key sel = col ?head key (fun a -> f 2 (sel a)) in
  let arms =
    [
      col ~head:"backend" ~align:Left "backend" (fun a -> Text a.backend);
      col "invocations" (fun a -> Int a.invocations);
      col ~head:"ok" "ok" (fun a -> Int a.ok);
      col ~head:"err" "errors" (fun a -> Int a.errors);
      ms2 "mean_ms" (fun a -> a.mean_ms);
      ms2 ~head:"p50 ms" "p50_ms" (fun a -> a.p50_ms);
      ms2 ~head:"p90 ms" "p90_ms" (fun a -> a.p90_ms);
      ms2 ~head:"p99 ms" "p99_ms" (fun a -> a.p99_ms);
      ms2 ~head:"p999 ms" "p999_ms" (fun a -> a.p999_ms);
      ms2 "bd_p99_ms" (fun a -> a.bd_p99_ms);
      ms2 "bd_p999_ms" (fun a -> a.bd_p999_ms);
      ms2 ~head:"ach rps" "achieved_rps" (fun a -> a.achieved_rps);
      col ~head:"depth" "max_in_flight" (fun a -> Int a.max_in_flight);
      col ~head:"cold/warm/hot" "" (fun { mix = m; _ } ->
          Text (Printf.sprintf "%d/%d/%d" m.Harness.cold m.warm m.hot));
      col "cold" (fun a -> Int a.mix.Harness.cold);
      col "warm" (fun a -> Int a.mix.Harness.warm);
      col "hot" (fun a -> Int a.mix.Harness.hot);
    ]
  in
  let curve =
    let plot =
      Stats.Asciiplot.create ~yscale:Stats.Asciiplot.Log
        ~title:"p99 latency vs offered load" ~xlabel:"offered req/s"
        ~ylabel:"p99 ms" ()
    in
    let marks = [ ("seuss", 'S'); ("linux", 'L'); ("firecracker", 'F'); ("process", 'P') ] in
    List.iter
      (fun (backend, mark) ->
        let series =
          List.filter_map
            (fun p ->
              List.find_opt (fun a -> a.backend = backend) p.arms
              |> Option.map (fun a -> (p.offered_rps, a.p99_ms)))
            r.points
        in
        Stats.Asciiplot.add_series plot ~label:backend ~mark series)
      marks;
    Stats.Asciiplot.render plot
  in
  {
    title = "fig_load: tail latency vs offered load";
    sections =
      [
        params
          [
            ("figure", Text "load");
            ("functions", Int r.functions);
            ("alpha", f 2 r.alpha);
            ("arrival", Text r.arrival);
            ("horizon_s", f 0 r.horizon);
            ("seed", Int64 r.seed);
          ];
        text
          (Printf.sprintf
             "Open-loop Zipf(%.2f) trace over %d functions, %s arrivals, %.1f \
              simulated hours per arm\n\
              (client-observed latency; depth = peak open-loop backlog; seed \
              %Ld)\n\n"
             r.alpha r.functions r.arrival (r.horizon /. 3600.0) r.seed);
        nested "points"
          [
            col ~head:"rps" "offered_rps" (fun p -> f (-1) p.offered_rps);
            col ~csv:false "trace_events" (fun p -> Int p.trace_events);
          ]
          "arms" arms
          (fun p -> p.arms)
          r.points;
        text ("\n" ^ curve);
        text
          (if r.timeline = "" then ""
           else "\nSEUSS resource timeline at the highest offered load:\n"
                ^ r.timeline);
      ];
  }
