(* seussctl: run the SEUSS reproduction experiments from the command
   line. Each subcommand regenerates one of the paper's tables/figures
   (see DESIGN.md's experiment index). *)

open Cmdliner

let seed_arg =
  let doc = "PRNG seed (experiments are deterministic per seed)." in
  Arg.(value & opt int64 7L & info [ "seed" ] ~docv:"SEED" ~doc)

(* Experiment subcommands take their one-line doc from the registry in
   Experiments.All — one table drives the CLI help, `seussctl info` and
   the startup coverage check in [main] below. *)
let exp_info name =
  match Experiments.All.doc name with
  | Some doc -> Cmd.info name ~doc
  | None ->
      Printf.ksprintf failwith
        "seussctl: subcommand %s missing from Experiments.All.registry" name

let print s = print_string s

(* Drive an engine the subcommand built itself and surface stuck
   waiters on stderr — stdout stays byte-identical, which the
   sanitizer-transparency checks depend on. With SEUSS_DEADLOCK=1 the
   wait-for-graph detector adds one provenance line per stranded
   process. *)
let run_watched engine =
  Sim.Engine.run engine;
  let stuck = Sim.Engine.stuck_waiters engine in
  if stuck > 0 then begin
    Printf.eprintf
      "seussctl: %d process%s still parked at quiescence (set \
       SEUSS_DEADLOCK=1 for a wait-for-graph report)\n"
      stuck
      (if stuck = 1 then "" else "es");
    List.iter
      (fun (s : Sim.Engine.stranded) ->
        Printf.eprintf
          "seussctl:   %s (pid %d, spawned %.6f) stuck on %s since %.6f%s\n"
          s.Sim.Engine.proc s.Sim.Engine.pid s.Sim.Engine.spawned_at
          s.Sim.Engine.resource s.Sim.Engine.waiting_since
          (if s.Sim.Engine.in_cycle then " [wait cycle]" else ""))
      (Sim.Engine.stranded_waiters engine)
  end

let table1_cmd =
  let invocations =
    Arg.(
      value & opt int 475
      & info [ "n"; "invocations" ] ~docv:"N"
          ~doc:"Invocations per path (paper: 475).")
  in
  let run invocations seed =
    print (Experiments.Table1.render (Experiments.Table1.run ~invocations ~seed ()))
  in
  Cmd.v
    (exp_info "table1")
    Term.(const run $ invocations $ seed_arg)

let table2_cmd =
  let invocations =
    Arg.(value & opt int 50 & info [ "n" ] ~docv:"N" ~doc:"Invocations per cell.")
  in
  let run invocations seed =
    print (Experiments.Table2.render (Experiments.Table2.run ~invocations ~seed ()))
  in
  Cmd.v
    (exp_info "table2")
    Term.(const run $ invocations $ seed_arg)

let table3_cmd =
  let mem_gib =
    Arg.(
      value & opt int 88
      & info [ "mem-gib" ] ~docv:"GIB"
          ~doc:"Node memory budget in GiB (paper: 88; smaller runs faster).")
  in
  let run mem_gib seed =
    let budget_bytes =
      Int64.mul (Int64.of_int mem_gib) (Int64.of_int (Mem.Mconfig.mib 1024))
    in
    print (Experiments.Table3.render (Experiments.Table3.run ~budget_bytes ~seed ()))
  in
  Cmd.v
    (exp_info "table3")
    Term.(const run $ mem_gib $ seed_arg)

let sizes_arg =
  Arg.(
    value
    & opt (list int) Experiments.Fig4.default_set_sizes
    & info [ "sizes" ] ~docv:"M,M,..."
        ~doc:"Unique-function set sizes (one trial each).")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"PATH" ~doc:"Also write the data as CSV.")

let fig4_cmd =
  let threads =
    Arg.(value & opt int 32 & info [ "threads" ] ~docv:"C" ~doc:"Client threads.")
  in
  let run sizes threads csv seed =
    let r = Experiments.Fig4.run ~set_sizes:sizes ~client_threads:threads ~seed () in
    print (Experiments.Fig4.render r);
    Option.iter (fun path -> Experiments.Fig4.write_csv ~path r) csv
  in
  Cmd.v
    (exp_info "fig4")
    Term.(const run $ sizes_arg $ threads $ csv_arg $ seed_arg)

let fig5_cmd =
  let sizes =
    Arg.(
      value & opt (list int) [ 64; 2048; 65536 ]
      & info [ "sizes" ] ~docv:"M,M,..." ~doc:"Set sizes (paper: 64,2048,65536).")
  in
  let requests =
    Arg.(value & opt int 2048 & info [ "requests" ] ~docv:"N" ~doc:"Measured requests per panel.")
  in
  let run sizes requests csv seed =
    let panels = Experiments.Fig5.run ~set_sizes:sizes ~requests ~seed () in
    print (Experiments.Fig5.render panels);
    Option.iter (fun path -> Experiments.Fig5.write_csv ~path panels) csv
  in
  Cmd.v
    (exp_info "fig5")
    Term.(const run $ sizes $ requests $ csv_arg $ seed_arg)

let burst_cmd =
  let period =
    Arg.(
      value & opt float 32.0
      & info [ "period" ] ~docv:"SECONDS" ~doc:"Burst period (paper: 32, 16, 8).")
  in
  let duration =
    Arg.(value & opt float 300.0 & info [ "duration" ] ~docv:"SECONDS" ~doc:"Run length.")
  in
  let size =
    Arg.(value & opt int 64 & info [ "burst-size" ] ~docv:"N" ~doc:"Concurrent requests per burst.")
  in
  let run period duration size csv seed =
    let r = Experiments.Fig_burst.run ~period ~duration ~burst_size:size ~seed () in
    print (Experiments.Fig_burst.render r);
    Option.iter (fun path -> Experiments.Fig_burst.write_csv ~path r) csv
  in
  Cmd.v
    (exp_info "burst")
    Term.(const run $ period $ duration $ size $ csv_arg $ seed_arg)

let ablations_cmd =
  let invocations =
    Arg.(value & opt int 30 & info [ "n" ] ~docv:"N" ~doc:"Invocations per cell.")
  in
  let run invocations seed =
    print (Experiments.Ablations.render (Experiments.Ablations.run ~invocations ~seed ()))
  in
  Cmd.v
    (exp_info "ablations")
    Term.(const run $ invocations $ seed_arg)

let drseuss_cmd =
  let nodes =
    Arg.(value & opt int 4 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let functions =
    Arg.(value & opt int 40 & info [ "functions" ] ~docv:"M" ~doc:"Unique functions.")
  in
  let run nodes functions seed =
    print
      (Experiments.Drseuss_exp.render
         (Experiments.Drseuss_exp.run ~nodes ~functions ~seed ()))
  in
  Cmd.v
    (exp_info "drseuss")
    Term.(const run $ nodes $ functions $ seed_arg)

let chaos_cmd =
  let nodes =
    Arg.(value & opt int 4 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let functions =
    Arg.(value & opt int 25 & info [ "functions" ] ~docv:"M" ~doc:"Unique functions (default coprime to the cluster size, so repeats migrate across nodes and exercise the fetch path).")
  in
  let calls =
    Arg.(
      value & opt int 200
      & info [ "calls" ] ~docv:"K" ~doc:"Invocations per fault rate.")
  in
  let rates =
    Arg.(
      value
      & opt (list float) Experiments.Fig_chaos.default_rates
      & info [ "rates" ] ~docv:"R,R,..."
          ~doc:"Injected per-site fault rates to sweep (0 = control arm).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the sweep as one canonical JSON object (bit-identical \
                across runs of the same seed) instead of a table.")
  in
  let events =
    Arg.(
      value & flag
      & info [ "events" ]
          ~doc:"Also dump the highest-rate run's failure/recovery timeline \
                as JSONL (crashes, evictions, retries, failovers).")
  in
  let run nodes functions calls rates json events csv seed =
    List.iter
      (fun r ->
        if r < 0.0 || r > 1.0 then begin
          Printf.eprintf "seussctl: --rates entries must be in [0, 1]\n";
          exit 2
        end)
      rates;
    let r =
      Experiments.Fig_chaos.run ~nodes ~functions ~calls ~rates ~seed ()
    in
    if json then
      print (Obs.Json.to_string (Experiments.Fig_chaos.to_json r) ^ "\n")
    else print (Experiments.Fig_chaos.render r);
    if events then print r.Experiments.Fig_chaos.timeline;
    Option.iter (fun path -> Experiments.Fig_chaos.write_csv ~path r) csv
  in
  Cmd.v
    (exp_info "chaos")
    Term.(const run $ nodes $ functions $ calls $ rates $ json $ events $ csv_arg $ seed_arg)

let reap_cmd =
  let functions =
    Arg.(
      value & opt int 8
      & info [ "functions" ] ~docv:"M" ~doc:"Distinct functions.")
  in
  let rounds =
    Arg.(
      value & opt int 20
      & info [ "rounds" ] ~docv:"R"
          ~doc:
            "Measured warm rounds per arm (the recording round is \
             excluded).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the comparison as one canonical JSON object \
                (bit-identical across runs of the same seed) instead of \
                a table.")
  in
  let run functions rounds json csv seed =
    if functions < 1 || rounds < 1 then begin
      Printf.eprintf "seussctl: --functions and --rounds must be positive\n";
      exit 2
    end;
    let r = Experiments.Fig_reap.run ~functions ~rounds ~seed () in
    if json then
      print (Obs.Json.to_string (Experiments.Fig_reap.to_json r) ^ "\n")
    else print (Experiments.Fig_reap.render r);
    Option.iter (fun path -> Experiments.Fig_reap.write_csv ~path r) csv
  in
  Cmd.v
    (exp_info "reap")
    Term.(const run $ functions $ rounds $ json $ csv_arg $ seed_arg)

let ksm_cmd =
  let mem =
    Arg.(value & opt int 3072 & info [ "mem-mib" ] ~docv:"MIB" ~doc:"Node memory budget.")
  in
  let run mem seed =
    print (Experiments.Ksm_exp.render (Experiments.Ksm_exp.run ~budget_mib:mem ~seed ()))
  in
  Cmd.v
    (exp_info "ksm")
    Term.(const run $ mem $ seed_arg)

let all_cmd =
  let full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Paper-scale parameters (88 GB density sweep, full burst set).")
  in
  let run full seed =
    let scale = if full then Experiments.All.Full else Experiments.All.Quick in
    print (Experiments.All.run ~scale ~seed ())
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every table and figure")
    Term.(const run $ full $ seed_arg)

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"PATH"
        ~doc:
          "Also export the traces as Chrome trace-event JSON (load in \
           Perfetto or chrome://tracing).")

let write_file path body =
  let oc = open_out path in
  output_string oc body;
  close_out oc

let trace_cmd armed =
  let source =
    Arg.(
      value
      & opt string "function main(args) { return {}; }"
      & info [ "source" ] ~docv:"MINIJS" ~doc:"Function source to trace.")
  in
  let run source chrome seed =
    let engine = Experiments.Harness.make_engine ~run:armed ~seed () in
    let trace_sample = armed.Experiments.Run_config.trace_sample in
    let collected = ref [] in
    Sim.Engine.spawn engine ~name:"trace" (fun () ->
        let env = Seuss.Osenv.create engine in
        let node = Seuss.Node.create ?trace_sample env in
        Seuss.Node.start node;
        let fn =
          { Seuss.Node.fn_id = "traced"; runtime = Unikernel.Image.Node; source }
        in
        let traced label prepare =
          prepare ();
          let tr = Sim.Trace.start_ctx engine in
          let t0 = Sim.Engine.now engine in
          (match Seuss.Node.invoke node fn ~args:"{}" with
          | Ok _, _ -> ()
          | Error _, _ -> prerr_endline "invocation failed");
          let total = Sim.Engine.now engine -. t0 in
          let spans = Sim.Trace.stop_ctx tr in
          collected := (label, spans) :: !collected;
          Printf.printf "%s invocation (%.2f ms total)
%s
" label
            (total *. 1e3) (Sim.Trace.render spans)
        in
        traced "cold" (fun () -> ());
        traced "hot" (fun () -> ());
        traced "warm" (fun () -> Seuss.Node.drop_idle node ~fn_id:"traced"));
    run_watched engine;
    Option.iter
      (fun path ->
        write_file path (Seuss.Traceout.chrome_string (List.rev !collected));
        Printf.eprintf "seussctl: wrote Chrome trace to %s\n" path)
      chrome
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Trace one cold, hot and warm invocation (span waterfalls; \
          $(b,--chrome) exports the same spans as Chrome trace-event JSON)")
    Term.(const run $ source $ chrome_arg $ seed_arg)

(* A small self-contained workload for the observability subcommands:
   [functions] distinct MiniJS functions invoked round-robin, so the
   event log shows cold, warm and hot paths plus snapshot captures. *)
let obs_workload ~functions ~calls node =
  for i = 0 to calls - 1 do
    let k = i mod functions in
    ignore
      (Seuss.Node.invoke node
         {
           Seuss.Node.fn_id = Printf.sprintf "fn-%d" k;
           runtime = Unikernel.Image.Node;
           source =
             Printf.sprintf "function main(args) { return {fn: %d}; }" k;
         }
         ~args:"{}")
  done

let functions_arg =
  Arg.(
    value & opt int 4
    & info [ "functions" ] ~docv:"M" ~doc:"Distinct functions in the workload.")

let require_positive name v =
  if v <= 0.0 then begin
    Printf.eprintf "seussctl: %s must be positive (got %g)\n" name v;
    exit 2
  end

let events_cmd armed =
  let calls =
    Arg.(
      value & opt int 12
      & info [ "calls" ] ~docv:"N" ~doc:"Invocations to run before dumping.")
  in
  let run functions calls chrome seed =
    require_positive "--functions" (float_of_int functions);
    if calls < 0 then begin
      Printf.eprintf "seussctl: --calls must be non-negative\n";
      exit 2
    end;
    let engine = Experiments.Harness.make_engine ~run:armed ~seed () in
    let trace_sample = armed.Experiments.Run_config.trace_sample in
    let captures = ref [] in
    Sim.Engine.spawn engine ~name:"events" (fun () ->
        let env = Seuss.Osenv.create engine in
        let node = Seuss.Node.create ?trace_sample env in
        Seuss.Node.start node;
        obs_workload ~functions ~calls node;
        print_string (Obs.Log.to_jsonl env.Seuss.Osenv.log);
        let dropped = Obs.Log.dropped env.Seuss.Osenv.log in
        if dropped > 0 then
          Printf.eprintf
            "seussctl: %d event%s evicted from the ring before this dump \
             (raise log_capacity to keep them)\n"
            dropped
            (if dropped = 1 then "" else "s");
        captures :=
          List.map
            (fun (c : Seuss.Node.capture) ->
              let path =
                match c.Seuss.Node.c_path with
                | Seuss.Node.Cold -> "cold"
                | Seuss.Node.Warm -> "warm"
                | Seuss.Node.Hot -> "hot"
              in
              ( Printf.sprintf "%s %s @%.3fs" c.Seuss.Node.c_fn path
                  c.Seuss.Node.c_t0,
                c.Seuss.Node.c_spans ))
            (Seuss.Node.captured_traces node));
    run_watched engine;
    Option.iter
      (fun path ->
        if !captures = [] then
          Printf.eprintf
            "seussctl: no sampled traces to export (arm capture with \
             SEUSS_TRACE_SAMPLE=1/N)\n"
        else begin
          write_file path (Seuss.Traceout.chrome_string !captures);
          Printf.eprintf "seussctl: wrote %d sampled trace%s to %s\n"
            (List.length !captures)
            (if List.length !captures = 1 then "" else "s")
            path
        end)
      chrome
  in
  Cmd.v
    (Cmd.info "events"
       ~doc:
         "Run a small workload and dump the structured event log as JSONL \
          (one engine-timestamped event per line). With SEUSS_TRACE_SAMPLE \
          armed, $(b,--chrome) exports the sampled invocation traces.")
    Term.(const run $ functions_arg $ calls $ chrome_arg $ seed_arg)

let top_cmd armed =
  let duration =
    Arg.(
      value & opt float 30.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated run length.")
  in
  let interval =
    Arg.(
      value & opt float 5.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period (simulated).")
  in
  let clients =
    Arg.(value & opt int 8 & info [ "clients" ] ~docv:"C" ~doc:"Client processes.")
  in
  let ansi =
    Arg.(
      value & flag
      & info [ "ansi" ]
          ~doc:"Clear the screen between frames (live-dashboard mode) \
                instead of printing frames sequentially.")
  in
  let run duration interval clients functions ansi seed =
    require_positive "--duration" duration;
    require_positive "--interval" interval;
    require_positive "--clients" (float_of_int clients);
    require_positive "--functions" (float_of_int functions);
    let engine = Experiments.Harness.make_engine ~run:armed ~seed () in
    let trace_sample = armed.Experiments.Run_config.trace_sample in
    Sim.Engine.spawn engine ~name:"top" (fun () ->
        let env = Seuss.Osenv.create engine in
        let node = Seuss.Node.create ?trace_sample env in
        Seuss.Node.start node;
        let bd = Obs.Breakdown.attach env.Seuss.Osenv.log in
        let m = env.Seuss.Osenv.metrics in
        let log = env.Seuss.Osenv.log in
        let stop_at = Sim.Engine.now engine +. duration in
        for c = 1 to clients do
          let rng = Sim.Prng.split env.Seuss.Osenv.rng in
          Sim.Engine.spawn engine ~name:(Printf.sprintf "client-%d" c)
            (fun () ->
              while Sim.Engine.now engine < stop_at do
                let k = Sim.Prng.int rng functions in
                ignore
                  (Seuss.Node.invoke node
                     {
                       Seuss.Node.fn_id = Printf.sprintf "fn-%d" k;
                       runtime = Unikernel.Image.Node;
                       source =
                         Printf.sprintf
                           "function main(args) { return {fn: %d}; }" k;
                     }
                     ~args:"{}");
                Sim.Engine.sleep (0.05 +. (0.25 *. Sim.Prng.float rng))
              done)
        done;
        let frame () =
          if ansi then print_string "\027[2J\027[H";
          Printf.printf "seussctl top — t=%.1fs (simulated)\n"
            (Sim.Engine.now engine);
          let table =
            Stats.Tablefmt.create
              ~columns:
                [
                  ("path", Stats.Tablefmt.Left);
                  ("count", Stats.Tablefmt.Right);
                  ("err", Stats.Tablefmt.Right);
                  ("mean ms", Stats.Tablefmt.Right);
                  ("p99 ms", Stats.Tablefmt.Right);
                  ("deploy", Stats.Tablefmt.Right);
                  ("import", Stats.Tablefmt.Right);
                  ("run", Stats.Tablefmt.Right);
                  ("queue", Stats.Tablefmt.Right);
                ]
          in
          List.iter
            (fun (label, path) ->
              let where = [ ("path", label) ] in
              let h =
                Obs.Metrics.histogram m ~labels:where "node_invoke_seconds"
              in
              let ms sel =
                match Obs.Breakdown.per_path bd path with
                | None -> "-"
                | Some p -> Printf.sprintf "%.2f" (sel p *. 1e3)
              in
              Stats.Tablefmt.add_row table
                [
                  label;
                  string_of_int
                    (Obs.Metrics.sum_counters m ~where "node_invocations_total");
                  string_of_int
                    (Obs.Metrics.sum_counters m ~where "node_errors_total");
                  Printf.sprintf "%.2f" (Obs.Metrics.hist_mean h *. 1e3);
                  Printf.sprintf "%.2f"
                    (Obs.Metrics.hist_quantile h 0.99 *. 1e3);
                  ms (fun p -> p.Obs.Breakdown.deploy);
                  ms (fun p -> p.Obs.Breakdown.import);
                  ms (fun p -> p.Obs.Breakdown.run);
                  ms (fun p -> p.Obs.Breakdown.queue);
                ])
            [
              ("cold", Obs.Event.Cold);
              ("warm", Obs.Event.Warm);
              ("hot", Obs.Event.Hot);
            ];
          print_string (Stats.Tablefmt.render table);
          Printf.printf
            "free %.1f MB | idle UCs %.0f | fn snapshots %.0f | cow faults %d \
             | reclaims %d | oom wakes %d\n"
            (Obs.Metrics.gauge_value (Obs.Metrics.gauge m "node_free_bytes")
            /. 1048576.0)
            (Obs.Metrics.gauge_value (Obs.Metrics.gauge m "node_idle_ucs"))
            (Obs.Metrics.gauge_value (Obs.Metrics.gauge m "node_fn_snapshots"))
            (Obs.Metrics.sum_counters m "mem_cow_faults_total")
            (Obs.Metrics.sum_counters m "node_ucs_reclaimed_total")
            (Obs.Metrics.sum_counters m "node_oom_wakes_total");
          let last =
            match List.rev (Obs.Log.records log) with
            | [] -> "none yet"
            | r :: _ ->
                Printf.sprintf "%s @ %.3fs"
                  (Obs.Event.type_name r.Obs.Log.ev)
                  r.Obs.Log.time
          in
          Printf.printf "events: %d emitted, %d dropped from ring | last: %s\n\n"
            (Obs.Log.emitted log) (Obs.Log.dropped log) last
        in
        while Sim.Engine.now engine < stop_at do
          Sim.Engine.sleep interval;
          frame ()
        done);
    run_watched engine
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live ascii dashboard over the metrics registry and event log \
          while a synthetic workload runs (frames advance in simulated \
          time; $(b,--ansi) redraws in place)")
    Term.(const run $ duration $ interval $ clients $ functions_arg $ ansi $ seed_arg)

let timeline_cmd armed =
  let duration =
    Arg.(
      value & opt float 30.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated run length.")
  in
  let period =
    Arg.(
      value
      & opt float Seuss.Timeline.default_period
      & info [ "period" ] ~docv:"SECONDS" ~doc:"Sampling period (simulated).")
  in
  let clients =
    Arg.(value & opt int 8 & info [ "clients" ] ~docv:"C" ~doc:"Client processes.")
  in
  let run duration period clients functions seed =
    require_positive "--duration" duration;
    require_positive "--period" period;
    require_positive "--clients" (float_of_int clients);
    require_positive "--functions" (float_of_int functions);
    let engine = Experiments.Harness.make_engine ~run:armed ~seed () in
    let trace_sample = armed.Experiments.Run_config.trace_sample in
    Sim.Engine.spawn engine ~name:"timeline" (fun () ->
        let env = Seuss.Osenv.create engine in
        let node = Seuss.Node.create ?trace_sample env in
        Seuss.Node.start node;
        (* Explicitly armed: this subcommand *is* the sampler demo, no
           SEUSS_TIMELINE needed. *)
        Seuss.Timeline.start ~period node;
        let stop_at = Sim.Engine.now engine +. duration in
        for c = 1 to clients do
          let rng = Sim.Prng.split env.Seuss.Osenv.rng in
          Sim.Engine.spawn engine ~name:(Printf.sprintf "client-%d" c)
            (fun () ->
              while Sim.Engine.now engine < stop_at do
                let k = Sim.Prng.int rng functions in
                ignore
                  (Seuss.Node.invoke node
                     {
                       Seuss.Node.fn_id = Printf.sprintf "fn-%d" k;
                       runtime = Unikernel.Image.Node;
                       source =
                         Printf.sprintf
                           "function main(args) { return {fn: %d}; }" k;
                     }
                     ~args:"{}");
                Sim.Engine.sleep (0.05 +. (0.25 *. Sim.Prng.float rng))
              done)
        done;
        (* Render at quiescence: park until the clients are done, then one
           more period so the sampler has observed the drained node. *)
        while Sim.Engine.now engine < stop_at +. period do
          Sim.Engine.sleep period
        done;
        let samples =
          Seuss.Timeline.samples_of_records
            (Obs.Log.records env.Seuss.Osenv.log)
        in
        print_string (Seuss.Timeline.render samples));
    run_watched engine
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Run a synthetic workload with the resource timeline sampler \
          armed and render the sampled gauges (run queue, in-flight, \
          idle UCs, snapshots, free memory) as ASCII charts")
    Term.(const run $ duration $ period $ clients $ functions_arg $ seed_arg)

let autoao_cmd =
  let invocations =
    Arg.(value & opt int 20 & info [ "n" ] ~docv:"N" ~doc:"Invocations per cell.")
  in
  let run invocations seed =
    print (Experiments.Auto_ao.render (Experiments.Auto_ao.run ~invocations ~seed ()))
  in
  Cmd.v
    (exp_info "autoao")
    Term.(const run $ invocations $ seed_arg)

let snapshots_cmd armed =
  let functions =
    Arg.(value & opt int 8 & info [ "functions" ] ~docv:"M" ~doc:"Functions to deploy first.")
  in
  let run functions seed =
    let engine = Experiments.Harness.make_engine ~run:armed ~seed () in
    let trace_sample = armed.Experiments.Run_config.trace_sample in
    Sim.Engine.spawn engine ~name:"snapshots" (fun () ->
        let env = Seuss.Osenv.create engine in
        let node = Seuss.Node.create ?trace_sample env in
        Seuss.Node.start node;
        for i = 1 to functions do
          ignore
            (Seuss.Node.invoke node
               {
                 Seuss.Node.fn_id = Printf.sprintf "fn-%d" i;
                 runtime = Unikernel.Image.Node;
                 source =
                   Printf.sprintf
                     "function main(args) { return {fn: %d, v: hash(\"x%d\")}; }"
                     i i;
               }
               ~args:"{}")
        done;
        (* Render the snapshot stack, docker-images style. *)
        let table =
          Stats.Tablefmt.create
            ~columns:
              [
                ("snapshot", Stats.Tablefmt.Left);
                ("depth", Stats.Tablefmt.Right);
                ("diff", Stats.Tablefmt.Right);
                ("mapped", Stats.Tablefmt.Right);
                ("deps", Stats.Tablefmt.Right);
              ]
        in
        let row name (s : Seuss.Snapshot.t) =
          Stats.Tablefmt.add_row table
            [
              name;
              string_of_int (Seuss.Snapshot.depth s);
              Printf.sprintf "%.1f MB"
                (Int64.to_float (Seuss.Snapshot.diff_bytes s) /. 1048576.0);
              Printf.sprintf "%.1f MB"
                (Int64.to_float (Seuss.Snapshot.total_bytes s) /. 1048576.0);
              string_of_int (Seuss.Snapshot.dependents s);
            ]
        in
        (match Seuss.Node.base_snapshot node Unikernel.Image.Node with
        | Some base -> row base.Seuss.Snapshot.name base
        | None -> ());
        Stats.Tablefmt.add_separator table;
        List.iter
          (fun (fn_id, s) -> row ("  +- " ^ fn_id) s)
          (Seuss.Node.snapshot_inventory node);
        print_string (Stats.Tablefmt.render table);
        let shared =
          match Seuss.Node.base_snapshot node Unikernel.Image.Node with
          | Some base -> Seuss.Snapshot.total_bytes base
          | None -> 0L
        in
        let diffs =
          List.fold_left
            (fun acc (_, s) -> Int64.add acc (Seuss.Snapshot.diff_bytes s))
            0L
            (Seuss.Node.snapshot_inventory node)
        in
        Printf.printf
          "\n%d function snapshots share one %.1f MB base; flat copies would\n\
           need %.1f MB, the stack stores %.1f MB (the S3 Foo()/Bar() example\n\
           at scale).\n"
          functions
          (Int64.to_float shared /. 1048576.0)
          (Int64.to_float
             (Int64.add (Int64.mul (Int64.of_int functions) shared) diffs)
          /. 1048576.0)
          (Int64.to_float (Int64.add shared diffs) /. 1048576.0));
    run_watched engine
  in
  Cmd.v
    (Cmd.info "snapshots"
       ~doc:"Deploy some functions and inspect the snapshot stack")
    Term.(const run $ functions $ seed_arg)

let load_cmd =
  let hours =
    Arg.(
      value & opt (some float) None
      & info [ "hours" ] ~docv:"H"
          ~doc:
            "Simulated hours of arrivals per arm (default 8).")
  in
  let functions =
    Arg.(
      value & opt (some int) None
      & info [ "functions" ] ~docv:"M"
          ~doc:
            "Synthetic functions under the Zipf popularity model (default \
             1024).")
  in
  let alpha =
    Arg.(
      value & opt (some float) None
      & info [ "alpha" ] ~docv:"A"
          ~doc:
            "Zipf popularity exponent (default 1.1).")
  in
  let arrival =
    Arg.(
      value & opt (some string) None
      & info [ "arrival" ] ~docv:"PROCESS"
          ~doc:
            "Inter-arrival process: poisson, bursty or diurnal (default \
             diurnal).")
  in
  let rps =
    Arg.(
      value & opt (some (list float)) None
      & info [ "rps" ] ~docv:"R,R,..."
          ~doc:
            "Offered mean arrival rates to sweep (default 0.5,2,8).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the sweep as one canonical JSON object (bit-identical \
                across runs of the same seed) instead of a table.")
  in
  let save_traces =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-traces" ] ~docv:"PREFIX"
          ~doc:
            "Also write each sweep point's synthesized trace to \
             $(docv)-<rps>.jsonl (replayable with $(b,--trace)).")
  in
  let trace_in =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Replay a saved trace (JSONL) as a single sweep point instead \
             of synthesizing; shape flags are ignored.")
  in
  let run hours functions alpha arrival rps json save_traces trace_in csv seed
      =
    let r =
      match trace_in with
      | Some path -> (
          match Workload.Trace.load ~path with
          | Ok trace -> Experiments.Fig_load.run_trace ~seed trace
          | Error msg ->
              Printf.eprintf "seussctl: cannot load trace %s: %s\n" path msg;
              exit 2)
      | None ->
          Experiments.Fig_load.run ?hours ?functions ?alpha ?arrival ?rps
            ~seed ()
    in
    if json then
      print (Obs.Json.to_string (Experiments.Fig_load.to_json r) ^ "\n")
    else print (Experiments.Fig_load.render r);
    Option.iter (fun path -> Experiments.Fig_load.write_csv ~path r) csv;
    Option.iter
      (fun prefix ->
        List.iter
          (fun (p : Experiments.Fig_load.point) ->
            (* Synthesis is pure, so the sweep's traces can be
               rematerialized from the report parameters. *)
            let trace =
              Workload.Trace.synthesize
                ~functions:r.Experiments.Fig_load.functions
                ~alpha:r.Experiments.Fig_load.alpha
                ~arrival:
                  (Experiments.Fig_load.arrival_of_name
                     r.Experiments.Fig_load.arrival
                     ~rate:p.Experiments.Fig_load.offered_rps)
                ~horizon:r.Experiments.Fig_load.horizon
                ~seed:r.Experiments.Fig_load.seed
            in
            let path =
              Printf.sprintf "%s-%g.jsonl" prefix
                p.Experiments.Fig_load.offered_rps
            in
            Workload.Trace.save ~path trace;
            Printf.eprintf "seussctl: wrote %s (%d events)\n" path
              (Array.length trace.Workload.Trace.events))
          r.Experiments.Fig_load.points)
      save_traces
  in
  Cmd.v
    (exp_info "load")
    Term.(
      const run $ hours $ functions $ alpha $ arrival $ rps $ json
      $ save_traces $ trace_in $ csv_arg $ seed_arg)

let evict_cmd =
  let hours =
    Arg.(
      value & opt (some float) None
      & info [ "hours" ] ~docv:"H"
          ~doc:
            "Simulated hours of arrivals per arm (default 0.25).")
  in
  let functions =
    Arg.(
      value & opt (some int) None
      & info [ "functions" ] ~docv:"M"
          ~doc:
            "Synthetic functions under the Zipf popularity model (default \
             160).")
  in
  let alpha =
    Arg.(
      value & opt (some float) None
      & info [ "alpha" ] ~docv:"A"
          ~doc:
            "Zipf popularity exponent (default 1.1).")
  in
  let rate =
    Arg.(
      value & opt (some float) None
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Offered mean arrival rate, req/s (default 4).")
  in
  let sizes =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "sizes" ] ~docv:"B,B,..."
          ~doc:
            "Cache budgets to sweep, bytes with optional binary k/m/g \
             suffix; 0 is the disarmed baseline (default \
             0,3m,4m,6m,8m,1g).")
  in
  let policy =
    Arg.(
      value & opt (some string) None
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Eviction policy: lru or ws (default lru).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the sweep as one canonical JSON object (bit-identical \
             across runs of the same seed) instead of a table.")
  in
  let run hours functions alpha rate sizes policy json csv seed =
    let sizes =
      Option.map
        (List.map (fun s ->
             match Experiments.Run_config.parse_bytes s with
             | Some v -> v
             | None ->
                 Printf.eprintf "seussctl: malformed cache size %S\n" s;
                 exit 2))
        sizes
    in
    let policy =
      Option.map
        (fun s ->
          match Seuss.Config.policy_of_name (String.lowercase_ascii s) with
          | Some p -> p
          | None ->
              Printf.eprintf "seussctl: unknown eviction policy %S\n" s;
              exit 2)
        policy
    in
    let r =
      Experiments.Fig_evict.run ?hours ?functions ?alpha ?rate ?sizes ?policy
        ~seed ()
    in
    if json then
      print (Obs.Json.to_string (Experiments.Fig_evict.to_json r) ^ "\n")
    else print (Experiments.Fig_evict.render r);
    Option.iter (fun path -> Experiments.Fig_evict.write_csv ~path r) csv
  in
  Cmd.v
    (exp_info "evict")
    Term.(
      const run $ hours $ functions $ alpha $ rate $ sizes $ policy $ json
      $ csv_arg $ seed_arg)

let info_cmd =
  let run () =
    Printf.printf
      "SEUSS reproduction (EuroSys '20: Skip Redundant Paths to Make \
       Serverless Fast)\n\n\
       Modeled compute node: %d-core VM, %Ld bytes of memory, 4 KiB pages.\n\
       Unikernel image (Node.js): %d pages (%.1f MB).\n\
       Guest hypercall surface: %d calls.\n\
       Experiments:\n"
      Seuss.Config.default.Seuss.Config.cores Mem.Mconfig.default_budget_bytes
      (Unikernel.Image.total_pages Unikernel.Image.node)
      (float_of_int (Unikernel.Image.total_pages Unikernel.Image.node)
       *. 4096.0 /. 1048576.0)
      Unikernel.Hypercall.interface_size;
    List.iter
      (fun (name, doc) -> Printf.printf "  %-10s %s\n" name doc)
      Experiments.All.registry;
    Printf.printf "  %-10s %s\n" "all" "Run every table and figure"
  in
  Cmd.v (Cmd.info "info" ~doc:"Show modeled-system parameters") Term.(const run $ const ())

let () =
  let doc = "SEUSS (EuroSys '20) reproduction experiments" in
  (* The run configuration is read once, here: a malformed SEUSS_*
     variable is a usage error, not a silently disarmed hook. Experiment
     subcommands get the same record as the harness's enclosing
     configuration, so nothing parses the environment a second time. *)
  let armed =
    match Experiments.Run_config.of_env () with
    | Ok armed -> armed
    | Error msg ->
        Printf.eprintf "seussctl: %s\n" msg;
        exit 2
  in
  let cmds =
    [ table1_cmd; table2_cmd; table3_cmd; fig4_cmd; fig5_cmd; burst_cmd;
      load_cmd; evict_cmd; ablations_cmd; drseuss_cmd; chaos_cmd; reap_cmd;
      ksm_cmd;
      autoao_cmd; trace_cmd armed; snapshots_cmd armed; top_cmd armed;
      timeline_cmd armed; events_cmd armed;
      all_cmd; info_cmd ]
  in
  (* Coverage check: every registry row must have a subcommand (the
     inverse — a subcommand missing from the registry — fails in
     [exp_info] when the command is built above). *)
  let names = List.map Cmd.name cmds in
  List.iter
    (fun (name, _) ->
      if not (List.mem name names) then begin
        Printf.eprintf
          "seussctl: experiment %s is registered but has no subcommand\n" name;
        exit 1
      end)
    Experiments.All.registry;
  let main = Cmd.group (Cmd.info "seussctl" ~doc) cmds in
  exit (Experiments.Harness.with_run armed (fun () -> Cmd.eval main))
