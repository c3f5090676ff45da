(* fig_load (extension): open-loop tail latency vs offered load.

   The closed-loop figures (4, 5) let a saturated backend slow its
   clients down; this sweep does not. For each offered rate a Zipf-
   popularity trace is synthesized over a synthetic MiniJS corpus
   ({!Workload.Trace}) and replayed open-loop — arrivals fire on
   schedule no matter how deep the backlog gets — through the same
   OpenWhisk control plane against four backends: SEUSS, the Linux
   container node, and warm-instance caches over the Firecracker and
   process backends. The figure reports client-observed latency
   percentiles per arm (plus the event-log breakdown tails and the
   cold/warm/hot serving mix), the open-loop backlog depth, and — on
   the SEUSS arm at the highest offered load — the node's resource
   timeline. Every arm of every point runs in a fresh simulation from
   the same run seed, so the whole sweep is deterministic. *)

type mix = { cold : int; warm : int; hot : int }

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
      (* Obs.Breakdown histogram tails (SEUSS arm only; 0 elsewhere) *)
  bd_p999_ms : float;
  achieved_rps : float;
  max_in_flight : int;
  mix : mix;
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
      (* resource timeline of the highest-load SEUSS arm, rendered *)
}

let backends = [ "seuss"; "linux"; "firecracker"; "process" ]

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

let fn_action fn =
  let ms = Workload.Fnset.work_ms fn in
  if ms = 0.0 then Baselines.Backend_intf.Nop
  else Baselines.Backend_intf.Cpu_ms ms

let percentile_ms lat p =
  if Stats.Summary.count lat = 0 then 0.0
  else Stats.Summary.percentile lat p *. 1e3

(* Replay [trace] against one backend in a fresh simulation. With
   [timeline] the resource sampler runs for the whole replay (it draws
   nothing, so arming it perturbs no measured quantity) and the rendered
   timeline is returned alongside the arm. *)
let run_arm ~seed ~timeline trace backend_name =
  Harness.run_sim ~seed (fun engine ->
      let env = Harness.make_seuss_env engine in
      let bd = Obs.Breakdown.attach env.Seuss.Osenv.log in
      let controller, mix_of, samples =
        match backend_name with
        | "seuss" ->
            let controller, node = Harness.seuss_controller env in
            let samples =
              if timeline then
                Some
                  (Seuss.Timeline.start
                     ~period:(trace.Workload.Trace.horizon /. 256.0)
                     node)
              else None
            in
            ( controller,
              (fun () ->
                let st = Seuss.Node.stats node in
                {
                  cold = st.Seuss.Node.cold;
                  warm = st.Seuss.Node.warm;
                  hot = st.Seuss.Node.hot;
                }),
              samples )
        | "linux" ->
            let controller, node = Harness.linux_controller env in
            ( controller,
              (fun () ->
                let st = Baselines.Linux_node.stats node in
                {
                  cold = st.Baselines.Linux_node.creates;
                  warm = st.Baselines.Linux_node.stemcell_hits;
                  hot = st.Baselines.Linux_node.warm_hits;
                }),
              None )
        | "firecracker" | "process" ->
            let kind =
              if backend_name = "firecracker" then
                Baselines.Pool_node.Firecracker
              else Baselines.Pool_node.Process
            in
            let controller, node = Harness.pool_controller ~kind env in
            ( controller,
              (fun () ->
                let st = Baselines.Pool_node.stats node in
                {
                  cold = st.Baselines.Pool_node.creates;
                  warm = 0;
                  hot = st.Baselines.Pool_node.warm_hits;
                }),
              None )
        | s -> invalid_arg (Printf.sprintf "Fig_load: unknown backend %S" s)
      in
      let r =
        Workload.Replay.run
          ~invoke:(fun ~fn ->
            Platform.Controller.invoke_custom controller
              ~fn_id:(Workload.Fnset.fn_id fn) ~action:(fn_action fn)
              ~source:(Workload.Fnset.source fn))
          trace
      in
      let lat = r.Workload.Replay.latencies in
      let bd_p99_ms, bd_p999_ms =
        match Obs.Breakdown.overall_tails bd with
        | None -> (0.0, 0.0)
        | Some t ->
            (t.Obs.Breakdown.p99 *. 1e3, t.Obs.Breakdown.p999 *. 1e3)
      in
      let rendered_timeline =
        match samples with
        | Some read -> Seuss.Timeline.render (read ())
        | None -> ""
      in
      ( {
          backend = backend_name;
          invocations = r.Workload.Replay.invocations;
          ok = r.Workload.Replay.ok;
          errors = r.Workload.Replay.errors;
          mean_ms = Stats.Summary.mean lat *. 1e3;
          p50_ms = percentile_ms lat 50.0;
          p90_ms = percentile_ms lat 90.0;
          p99_ms = percentile_ms lat 99.0;
          p999_ms = percentile_ms lat 99.9;
          bd_p99_ms;
          bd_p999_ms;
          achieved_rps = r.Workload.Replay.achieved_rps;
          max_in_flight = r.Workload.Replay.max_in_flight;
          mix = mix_of ();
        },
        rendered_timeline ))

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
            (fun backend ->
              let want_timeline = backend = "seuss" && offered = top_rps in
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
    List.map (fun b -> fst (run_arm ~seed ~timeline:false trace b)) backends
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

let arm_to_json a =
  Obs.Json.Obj
    [
      ("backend", Obs.Json.String a.backend);
      ("invocations", Obs.Json.Int a.invocations);
      ("ok", Obs.Json.Int a.ok);
      ("errors", Obs.Json.Int a.errors);
      ("mean_ms", Obs.Json.Float a.mean_ms);
      ("p50_ms", Obs.Json.Float a.p50_ms);
      ("p90_ms", Obs.Json.Float a.p90_ms);
      ("p99_ms", Obs.Json.Float a.p99_ms);
      ("p999_ms", Obs.Json.Float a.p999_ms);
      ("bd_p99_ms", Obs.Json.Float a.bd_p99_ms);
      ("bd_p999_ms", Obs.Json.Float a.bd_p999_ms);
      ("achieved_rps", Obs.Json.Float a.achieved_rps);
      ("max_in_flight", Obs.Json.Int a.max_in_flight);
      ("cold", Obs.Json.Int a.mix.cold);
      ("warm", Obs.Json.Int a.mix.warm);
      ("hot", Obs.Json.Int a.mix.hot);
    ]

let point_to_json p =
  Obs.Json.Obj
    [
      ("offered_rps", Obs.Json.Float p.offered_rps);
      ("trace_events", Obs.Json.Int p.trace_events);
      ("arms", Obs.Json.List (List.map arm_to_json p.arms));
    ]

let to_json r =
  Obs.Json.Obj
    [
      ("figure", Obs.Json.String "load");
      ("functions", Obs.Json.Int r.functions);
      ("alpha", Obs.Json.Float r.alpha);
      ("arrival", Obs.Json.String r.arrival);
      ("horizon_s", Obs.Json.Float r.horizon);
      ("seed", Obs.Json.String (Int64.to_string r.seed));
      ("points", Obs.Json.List (List.map point_to_json r.points));
    ]

let render r =
  let table =
    Stats.Tablefmt.create
      ~columns:
        [
          ("rps", Stats.Tablefmt.Right);
          ("backend", Stats.Tablefmt.Left);
          ("ok", Stats.Tablefmt.Right);
          ("err", Stats.Tablefmt.Right);
          ("p50 ms", Stats.Tablefmt.Right);
          ("p90 ms", Stats.Tablefmt.Right);
          ("p99 ms", Stats.Tablefmt.Right);
          ("p999 ms", Stats.Tablefmt.Right);
          ("ach rps", Stats.Tablefmt.Right);
          ("depth", Stats.Tablefmt.Right);
          ("cold/warm/hot", Stats.Tablefmt.Right);
        ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun a ->
          Stats.Tablefmt.add_row table
            [
              Printf.sprintf "%g" p.offered_rps;
              a.backend;
              string_of_int a.ok;
              string_of_int a.errors;
              Printf.sprintf "%.2f" a.p50_ms;
              Printf.sprintf "%.2f" a.p90_ms;
              Printf.sprintf "%.2f" a.p99_ms;
              Printf.sprintf "%.2f" a.p999_ms;
              Printf.sprintf "%.2f" a.achieved_rps;
              string_of_int a.max_in_flight;
              Printf.sprintf "%d/%d/%d" a.mix.cold a.mix.warm a.mix.hot;
            ])
        p.arms;
      Stats.Tablefmt.add_separator table)
    r.points;
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
  Printf.sprintf
    "%sOpen-loop Zipf(%.2f) trace over %d functions, %s arrivals, %.1f \
     simulated hours per arm\n\
     (client-observed latency; depth = peak open-loop backlog; seed %Ld)\n\n\
     %s\n%s%s"
    (Report.heading "fig_load: tail latency vs offered load")
    r.alpha r.functions r.arrival (r.horizon /. 3600.0) r.seed
    (Stats.Tablefmt.render table)
    curve
    (if r.timeline = "" then ""
     else "\nSEUSS resource timeline at the highest offered load:\n"
          ^ r.timeline)

let write_csv ~path r =
  Report.write_csv ~path
    ~header:
      [
        "offered_rps"; "backend"; "invocations"; "ok"; "errors"; "mean_ms";
        "p50_ms"; "p90_ms"; "p99_ms"; "p999_ms"; "bd_p99_ms"; "bd_p999_ms";
        "achieved_rps"; "max_in_flight"; "cold"; "warm"; "hot";
      ]
    (List.concat_map
       (fun p ->
         List.map
           (fun a ->
             [
               Printf.sprintf "%g" p.offered_rps;
               a.backend;
               string_of_int a.invocations;
               string_of_int a.ok;
               string_of_int a.errors;
               Printf.sprintf "%.6f" a.mean_ms;
               Printf.sprintf "%.6f" a.p50_ms;
               Printf.sprintf "%.6f" a.p90_ms;
               Printf.sprintf "%.6f" a.p99_ms;
               Printf.sprintf "%.6f" a.p999_ms;
               Printf.sprintf "%.6f" a.bd_p99_ms;
               Printf.sprintf "%.6f" a.bd_p999_ms;
               Printf.sprintf "%.6f" a.achieved_rps;
               string_of_int a.max_in_flight;
               string_of_int a.mix.cold;
               string_of_int a.mix.warm;
               string_of_int a.mix.hot;
             ])
           p.arms)
       r.points)
