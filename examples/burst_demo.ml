(* Burst resiliency in miniature: a steady IO-bound stream with a sudden
   CPU-bound burst on top, on both compute nodes.

     dune exec examples/burst_demo.exe

   A 60-second timeline printed per 5-second window: requests served and
   failures, Linux vs SEUSS. The full experiment (Figures 6-8) is
   `seussctl burst`. *)

let window = 5.0

let run_backend name make_controller =
  Experiments.Harness.run_sim ~seed:11L (fun engine ->
      let env =
        Experiments.Harness.make_seuss_env
          ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib (24 * 1024)))
          engine
      in
      let controller = make_controller env in
      let cfg =
        {
          Platform.Burst.default with
          Platform.Burst.duration = 60.0;
          background_threads = 32;
          background_rate = 24.0;
          burst_period = 20.0;
          burst_size = 48;
          first_burst_at = 12.0;
        }
      in
      let r =
        Platform.Burst.run
          ~invoke:(fun spec -> Platform.Controller.invoke controller spec)
          cfg
      in
      Printf.printf "\n%s node timeline (%d background + %d burst requests):\n"
        name
        (Stats.Series.length r.Platform.Burst.background)
        (Stats.Series.length r.Platform.Burst.bursts);
      Printf.printf "  %-10s %-10s %-12s %-8s\n" "window" "requests"
        "p99 latency" "failed";
      let all = Stats.Series.create () in
      let copy series =
        Array.iter
          (fun p ->
            Stats.Series.add all ~time:p.Stats.Series.time
              ~value:p.Stats.Series.value ~ok:p.Stats.Series.ok)
          (Stats.Series.points series)
      in
      copy r.Platform.Burst.background;
      copy r.Platform.Burst.bursts;
      let points = Stats.Series.points all in
      let last =
        Array.fold_left (fun acc p -> Float.max acc p.Stats.Series.time) 0.0 points
      in
      List.iter
        (fun start ->
          let in_window =
            Array.to_list points
            |> List.filter (fun p ->
                   p.Stats.Series.time >= start
                   && p.Stats.Series.time < start +. window)
          in
          if in_window <> [] then begin
            let s = Stats.Summary.create () in
            List.iter (fun p -> Stats.Summary.add s p.Stats.Series.value) in_window;
            let failures =
              List.length (List.filter (fun p -> not p.Stats.Series.ok) in_window)
            in
            Printf.printf "  %4.0f-%-4.0fs  %-10d %8.0f ms  %-8d\n" start
              (start +. window)
              (List.length in_window)
              (Stats.Summary.percentile s 99.0 *. 1e3)
              failures
          end)
        (List.init
           (1 + int_of_float (last /. window))
           (fun i -> float_of_int i *. window)))

let () =
  run_backend "Linux" (fun env ->
      let config =
        {
          Baselines.Linux_node.stemcell_count = 32;
          container_cache_limit = 96;
        }
      in
      fst (Experiments.Harness.linux_controller ~config env));
  run_backend "SEUSS" (fun env ->
      fst (Experiments.Harness.seuss_controller env))
