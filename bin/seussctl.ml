(* seussctl: run the SEUSS reproduction experiments from the command
   line. Each experiment subcommand is a row of Cli.rows (bin/cli.ml)
   and regenerates one of the paper's tables/figures (see DESIGN.md's
   experiment index); the others inspect a running node. *)

open Cmdliner

let pos_int = Cli.pos_int
let nonneg_int = Cli.nonneg_int
let pos_float = Cli.pos_float
let seed_arg = Cli.seed_arg

module H = Experiments.Harness

let experiment_cmd (row : Cli.row) =
  Cmd.v (Cmd.info row.name ~doc:row.doc) Term.(const print_string $ row.term)

(* One section per row, each of its argument lines run at [seed] and
   the outputs joined with a newline. *)
let all_cmd =
  let full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Paper-scale parameters (88 GB density sweep, full burst set).")
  in
  let run full seed =
    List.iter
      (fun (row : Cli.row) ->
        let section line =
          let args = Cli.words line in
          prerr_endline
            ("[experiments] " ^ String.concat " " (row.name :: args) ^ "...");
          Cli.run row (args @ [ Printf.sprintf "--seed=%Ld" seed ])
        in
        print_string
          (String.concat "\n"
             (List.map section (if full then row.full else row.quick)));
        print_char '\n')
      Cli.rows
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

(* The inspection subcommands run on the harness, armed like any
   experiment: [body] gets a plain environment (no io-server) and a
   harness-built SEUSS node. Stuck waiters surface on stderr — stdout
   stays byte-identical, which the sanitizer-transparency checks depend
   on. With SEUSS_DEADLOCK=1 the detector adds one provenance line per
   stranded process and per lock-order cycle; a cycle can be found on
   a run that parks nobody. *)
let report_stuck () =
  let stuck = H.last_stuck_waiters () in
  if stuck > 0 then
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
    (H.last_stranded_waiters ())

let inspect ~seed body =
  Fun.protect ~finally:report_stuck (fun () ->
      H.run_sim ~seed (fun engine ->
          let env = Seuss.Osenv.create engine in
          body env (H.seuss_node env)))

let trace_cmd =
  let source =
    Arg.(
      value
      & opt string "function main(args) { return {}; }"
      & info [ "source" ] ~docv:"MINIJS" ~doc:"Function source to trace.")
  in
  let run source chrome seed =
    let collected =
      inspect ~seed (fun env node ->
          let engine = env.Seuss.Osenv.engine in
          let fn =
            {
              Seuss.Node.fn_id = "traced";
              runtime = Unikernel.Image.Node;
              source;
            }
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
            Printf.printf "%s invocation (%.2f ms total)\n%s\n" label
              (total *. 1e3) (Sim.Trace.render spans);
            (label, spans)
          in
          let cold = traced "cold" ignore in
          let hot = traced "hot" ignore in
          let warm =
            traced "warm" (fun () -> Seuss.Node.drop_idle node ~fn_id:"traced")
          in
          [ cold; hot; warm ])
    in
    Option.iter
      (fun path ->
        write_file path (Seuss.Traceout.chrome_string collected);
        Printf.eprintf "seussctl: wrote Chrome trace to %s\n" path)
      chrome
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Trace one cold, hot and warm invocation (span waterfalls; \
          $(b,--chrome) exports the same spans as Chrome trace-event JSON)")
    Term.(const run $ source $ chrome_arg $ seed_arg)

(* The synthetic workload of the observability subcommands: function
   [k] is a distinct one-line MiniJS function, so a mix of them shows
   cold, warm and hot paths plus snapshot captures. [spawn_clients]
   starts [clients] processes that each invoke a random function and
   think for a random while, until [until] (simulated). *)
let invoke_fn node k =
  Seuss.Node.invoke node
    {
      Seuss.Node.fn_id = Printf.sprintf "fn-%d" k;
      runtime = Unikernel.Image.Node;
      source = Printf.sprintf "function main(args) { return {fn: %d}; }" k;
    }
    ~args:"{}"

let spawn_clients (env : Seuss.Osenv.t) node ~clients ~functions ~until =
  let engine = env.Seuss.Osenv.engine in
  for c = 1 to clients do
    let rng = Sim.Prng.split env.Seuss.Osenv.rng in
    Sim.Engine.spawn engine ~name:(Printf.sprintf "client-%d" c) (fun () ->
        while Sim.Engine.now engine < until do
          ignore (invoke_fn node (Sim.Prng.int rng functions));
          Sim.Engine.sleep (0.05 +. (0.25 *. Sim.Prng.float rng))
        done)
  done

let functions_arg =
  Arg.(
    value & opt pos_int 4
    & info [ "functions" ] ~docv:"M" ~doc:"Distinct functions in the workload.")

let events_cmd =
  let calls =
    Arg.(
      value & opt nonneg_int 12
      & info [ "calls" ] ~docv:"N" ~doc:"Invocations to run before dumping.")
  in
  let run functions calls chrome seed =
    let traces =
      inspect ~seed (fun env node ->
          let engine = env.Seuss.Osenv.engine in
          (* With --chrome, each call records into its own trace,
             labelled by function, serving path and start time. *)
          let call i =
            let k = i mod functions in
            match chrome with
            | None ->
                ignore (invoke_fn node k);
                None
            | Some _ ->
                let tr = Sim.Trace.start_ctx engine in
                let t0 = Sim.Engine.now engine in
                let _, path = invoke_fn node k in
                let path =
                  match path with
                  | Seuss.Node.Cold -> "cold"
                  | Seuss.Node.Warm -> "warm"
                  | Seuss.Node.Hot -> "hot"
                in
                Some
                  ( Printf.sprintf "fn-%d %s @%.3fs" k path t0,
                    Sim.Trace.stop_ctx tr )
          in
          let traces = List.filter_map call (List.init calls Fun.id) in
          print_string (Obs.Log.to_jsonl env.Seuss.Osenv.log);
          let dropped = Obs.Log.dropped env.Seuss.Osenv.log in
          if dropped > 0 then
            Printf.eprintf
              "seussctl: %d event%s evicted from the %d-event ring before \
               this dump (fewer --calls keep every event)\n"
              dropped
              (if dropped = 1 then "" else "s")
              Obs.Log.default_capacity;
          traces)
    in
    Option.iter
      (fun path ->
        write_file path (Seuss.Traceout.chrome_string traces);
        Printf.eprintf "seussctl: wrote %d trace%s to %s\n"
          (List.length traces)
          (if List.length traces = 1 then "" else "s")
          path)
      chrome
  in
  Cmd.v
    (Cmd.info "events"
       ~doc:
         "Run a small workload and dump the structured event log as JSONL \
          (one engine-timestamped event per line); $(b,--chrome) also \
          exports every invocation's span tree.")
    Term.(const run $ functions_arg $ calls $ chrome_arg $ seed_arg)

let top_cmd =
  let duration =
    Arg.(
      value & opt pos_float 30.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated run length.")
  in
  let interval =
    Arg.(
      value & opt pos_float 5.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period (simulated).")
  in
  let clients =
    Arg.(value & opt pos_int 8 & info [ "clients" ] ~docv:"C" ~doc:"Client processes.")
  in
  let ansi =
    Arg.(
      value & flag
      & info [ "ansi" ]
          ~doc:"Clear the screen between frames (live-dashboard mode) \
                instead of printing frames sequentially.")
  in
  let run duration interval clients functions ansi seed =
    inspect ~seed (fun env node ->
        let engine = env.Seuss.Osenv.engine in
        let bd = Obs.Breakdown.attach env.Seuss.Osenv.log in
        let m = env.Seuss.Osenv.metrics in
        let log = env.Seuss.Osenv.log in
        let stop_at = Sim.Engine.now engine +. duration in
        spawn_clients env node ~clients ~functions ~until:stop_at;
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
              let ms empty = function
                | None -> empty
                | Some seconds -> Printf.sprintf "%.2f" (seconds *. 1e3)
              in
              let means = Obs.Breakdown.per_path bd path in
              let phase sel = ms "-" (Option.map sel means) in
              Stats.Tablefmt.add_row table
                [
                  label;
                  string_of_int
                    (Obs.Metrics.sum_counters m ~where "node_invocations_total");
                  string_of_int
                    (Obs.Metrics.sum_counters m ~where "node_errors_total");
                  ms "0.00" (Option.map (fun p -> p.Obs.Breakdown.total) means);
                  ms "0.00"
                    (Option.map
                       (fun t -> t.Obs.Breakdown.p99)
                       (Obs.Breakdown.tails bd path));
                  phase (fun p -> p.Obs.Breakdown.deploy);
                  phase (fun p -> p.Obs.Breakdown.import);
                  phase (fun p -> p.Obs.Breakdown.run);
                  phase (fun p -> p.Obs.Breakdown.queue);
                ])
            [
              ("cold", Obs.Event.Cold);
              ("warm", Obs.Event.Warm);
              ("hot", Obs.Event.Hot);
            ];
          print_string (Stats.Tablefmt.render table);
          Printf.printf
            "free %.1f MB | idle UCs %d | fn snapshots %d | cow faults %d \
             | reclaims %d | oom wakes %d\n"
            (Int64.to_float (Seuss.Node.free_bytes node) /. 1048576.0)
            (Seuss.Node.idle_uc_count node)
            (Seuss.Node.snapshot_count node)
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
        done)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live ascii dashboard over the metrics registry, the event log \
          and the node's state while a synthetic workload runs (frames \
          advance in simulated time; $(b,--ansi) redraws in place)")
    Term.(const run $ duration $ interval $ clients $ functions_arg $ ansi $ seed_arg)

let timeline_cmd =
  let duration =
    Arg.(
      value & opt pos_float 30.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated run length.")
  in
  let period =
    Arg.(
      value
      & opt pos_float Seuss.Timeline.default_period
      & info [ "period" ] ~docv:"SECONDS" ~doc:"Sampling period (simulated).")
  in
  let clients =
    Arg.(value & opt pos_int 8 & info [ "clients" ] ~docv:"C" ~doc:"Client processes.")
  in
  let run duration period clients functions seed =
    inspect ~seed (fun env node ->
        let engine = env.Seuss.Osenv.engine in
        let samples = Seuss.Timeline.start ~period node in
        let stop_at = Sim.Engine.now engine +. duration in
        spawn_clients env node ~clients ~functions ~until:stop_at;
        (* Render at quiescence: park until the clients are done, then one
           more period so the sampler has observed the drained node. *)
        while Sim.Engine.now engine < stop_at +. period do
          Sim.Engine.sleep period
        done;
        print_string (Seuss.Timeline.render (samples ())))
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Run a synthetic workload with the resource timeline sampler \
          armed and render the sampled gauges (run queue, in-flight, \
          idle UCs, snapshots, free memory) as ASCII charts")
    Term.(const run $ duration $ period $ clients $ functions_arg $ seed_arg)

let snapshots_cmd =
  let functions =
    Arg.(value & opt nonneg_int 8 & info [ "functions" ] ~docv:"M" ~doc:"Functions to deploy first.")
  in
  let run functions seed =
    inspect ~seed (fun _ node ->
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
          (Int64.to_float (Int64.add shared diffs) /. 1048576.0))
  in
  Cmd.v
    (Cmd.info "snapshots"
       ~doc:"Deploy some functions and inspect the snapshot stack")
    Term.(const run $ functions $ seed_arg)

let info_cmd =
  let run () =
    Printf.printf
      "SEUSS reproduction (EuroSys '20: Skip Redundant Paths to Make \
       Serverless Fast)\n\n\
       Modeled compute node: %d-core VM, %Ld bytes of memory, 4 KiB pages.\n\
       Unikernel image (Node.js): %d pages (%.1f MB).\n\
       Guest hypercall surface: %d calls.\n\
       Experiments:\n"
      Seuss.Osenv.default_cores Mem.Mconfig.default_budget_bytes
      (Unikernel.Image.total_pages Unikernel.Image.node)
      (float_of_int (Unikernel.Image.total_pages Unikernel.Image.node)
       *. 4096.0 /. 1048576.0)
      Unikernel.Hypercall.interface_size;
    List.iter
      (fun (row : Cli.row) -> Printf.printf "  %-10s %s\n" row.name row.doc)
      Cli.rows;
    Printf.printf "  %-10s %s\n" "all" "Run every table and figure"
  in
  Cmd.v (Cmd.info "info" ~doc:"Show modeled-system parameters") Term.(const run $ const ())

let () =
  let doc = "SEUSS (EuroSys '20) reproduction experiments" in
  (* The run configuration is read once, here: a malformed SEUSS_*
     variable is a usage error, not a silently disarmed hook. Every
     subcommand gets the same record as the harness's enclosing
     configuration, so nothing parses the environment a second time. *)
  let armed =
    match Experiments.Run_config.of_env () with
    | Ok armed -> armed
    | Error msg ->
        Printf.eprintf "seussctl: %s\n" msg;
        exit 2
  in
  let cmds =
    List.map experiment_cmd Cli.rows
    @ [ trace_cmd; snapshots_cmd; top_cmd; timeline_cmd; events_cmd; all_cmd;
        info_cmd ]
  in
  let main = Cmd.group (Cmd.info "seussctl" ~doc) cmds in
  exit (H.with_run armed (fun () -> Cmd.eval main))
