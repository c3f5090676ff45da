type point = {
  set_size : int;
  throughput : float;
  errors : int;
  mean_latency : float;
  breakdown : Obs.Breakdown.phase_means option;
      (** per-phase means from the node's event log; [None] for the
          Linux baseline, which emits no node events *)
  tails : Obs.Breakdown.tails option;
      (** node-side total-latency tail percentiles, same provenance *)
}

type result = { seuss : point list; linux : point list }

let default_set_sizes = [ 64; 128; 256; 512; 1024; 2048; 4096; 8192; 16384 ]

let trial_lengths m =
  let measured = min (max 1024 (2 * m)) 6144 in
  let warmup = min 256 (measured / 4) in
  (warmup + measured, warmup)

let run_trial ~seed ~client_threads ~make_controller m =
  Harness.run_sim ~seed (fun engine ->
      let env = Harness.make_seuss_env engine in
      let bd = Obs.Breakdown.attach env.Seuss.Osenv.log in
      let controller = make_controller env in
      let invocations, warmup = trial_lengths m in
      let r =
        Platform.Loadgen.run
          ~invoke:(fun ~fn_index ->
            Platform.Controller.invoke controller
              {
                Platform.Controller.fn_id = Printf.sprintf "fn-%d" fn_index;
                action = Platform.Workloads.nop;
              })
          {
            Platform.Loadgen.invocations;
            fn_set_size = m;
            client_threads;
            seed;
            warmup;
          }
      in
      {
        set_size = m;
        throughput = r.Platform.Loadgen.throughput;
        errors = r.Platform.Loadgen.errors;
        mean_latency =
          (if Stats.Summary.count r.Platform.Loadgen.latencies > 0 then
             Stats.Summary.mean r.Platform.Loadgen.latencies
           else 0.0);
        breakdown = Obs.Breakdown.overall bd;
        tails = Obs.Breakdown.overall_tails bd;
      })

let run ?(set_sizes = default_set_sizes) ?(client_threads = 32) ?(seed = 21L)
    () =
  let series make =
    List.map (fun m -> run_trial ~seed ~client_threads ~make_controller:make m) set_sizes
  in
  let seuss =
    series (fun env -> fst (Harness.seuss_controller env))
  in
  let linux =
    series (fun env -> fst (Harness.linux_controller env))
  in
  { seuss; linux }

let report r =
  let open Report in
  (* A trial whose node logged no invocation has no breakdown: "-". *)
  let ms_of sel = function None -> Absent | Some x -> f 2 (sel x *. 1e3) in
  let phase head key sel =
    col ~head ("seuss_" ^ key) (fun (s, _) -> ms_of sel s.breakdown)
  and tail ?head key sel =
    col ?head ("seuss_" ^ key) (fun (s, _) -> ms_of sel s.tails)
  in
  let columns =
    [
      col ~head:"Set size" "set_size" (fun (s, _) -> Int s.set_size);
      col ~head:"SEUSS req/s" "seuss_rps" (fun (s, _) -> f 1 s.throughput);
      col ~head:"Linux req/s" "linux_rps" (fun (_, l) -> f 1 l.throughput);
      col ~head:"Speedup" "" (fun (s, l) ->
          Text (Printf.sprintf "%.1fx" (s.throughput /. Float.max 0.01 l.throughput)));
      col "seuss_errors" (fun (s, _) -> Int s.errors);
      col "linux_errors" (fun (_, l) -> Int l.errors);
      phase "deploy ms" "deploy_ms" (fun p -> p.Obs.Breakdown.deploy);
      phase "import ms" "import_ms" (fun p -> p.Obs.Breakdown.import);
      phase "run ms" "run_ms" (fun p -> p.Obs.Breakdown.run);
      phase "queue ms" "queue_ms" (fun p -> p.Obs.Breakdown.queue);
      tail "p50_ms" (fun t -> t.Obs.Breakdown.p50);
      tail "p90_ms" (fun t -> t.Obs.Breakdown.p90);
      tail ~head:"p99 ms" "p99_ms" (fun t -> t.Obs.Breakdown.p99);
      tail ~head:"p999 ms" "p999_ms" (fun t -> t.Obs.Breakdown.p999);
      col ~head:"SEUSS err" "" (fun (s, _) -> Int s.errors);
      col ~head:"Linux err" "" (fun (_, l) -> Int l.errors);
    ]
  in
  let plot =
    Stats.Asciiplot.create ~xscale:Stats.Asciiplot.Log
      ~yscale:Stats.Asciiplot.Log
      ~title:"Figure 4: OpenWhisk throughput vs unique-function set size"
      ~xlabel:"set size" ~ylabel:"req/s" ()
  in
  let pts series =
    List.map (fun p -> (float_of_int p.set_size, p.throughput)) series
  in
  Stats.Asciiplot.add_series plot ~label:"SEUSS" ~mark:'s' (pts r.seuss);
  Stats.Asciiplot.add_series plot ~label:"Linux" ~mark:'L' (pts r.linux);
  let last_ratio =
    match (List.rev r.seuss, List.rev r.linux) with
    | s :: _, l :: _ -> s.throughput /. Float.max 0.01 l.throughput
    | _ -> 0.0
  in
  {
    title = "Figure 4: platform throughput";
    sections =
      [
        params [ ("figure", Text "fig4") ];
        table "points" columns (List.combine r.seuss r.linux);
        text
          (Printf.sprintf
             "\n%s\nPaper: Linux ~21%% faster at the smallest sets (shim hop);\n\
              SEUSS up to 52x faster on the mostly-unique workload.\n\
              Phase columns: SEUSS node-side per-invocation means derived from\n\
              the structured event log (deploy+import+run = service; queue is the\n\
              residual); p99/p999 are total-latency tails from the same log\n\
              (log-binned, ~8%% quantisation). Measured speedup at the largest\n\
              set: %.1fx\n"
             (Stats.Asciiplot.render plot)
             last_ratio);
      ];
  }
