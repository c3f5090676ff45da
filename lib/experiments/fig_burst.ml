type side = { background : Stats.Series.t; bursts : Stats.Series.t }

type result = { period : float; seuss : side; linux : side }

let burst_config ~period ~duration ~burst_size ~seed =
  {
    Platform.Burst.default with
    Platform.Burst.burst_period = period;
    duration;
    burst_size;
    seed;
  }

let run_side ~cfg ~seed ~make_controller =
  Harness.run_sim ~seed (fun engine ->
      let env = Harness.make_seuss_env engine in
      let controller = make_controller env in
      let r =
        Platform.Burst.run
          ~invoke:(fun spec -> Platform.Controller.invoke controller spec)
          cfg
      in
      {
        background = r.Platform.Burst.background;
        bursts = r.Platform.Burst.bursts;
      })

let run ?(period = 32.0) ?(duration = 300.0) ?(burst_size = 64) ?(seed = 31L)
    () =
  let cfg = burst_config ~period ~duration ~burst_size ~seed in
  let seuss =
    run_side ~cfg ~seed ~make_controller:(fun env ->
        fst (Harness.seuss_controller env))
  in
  let linux_config =
    { Baselines.Linux_node.default_config with
      Baselines.Linux_node.stemcell_count = 256 }
  in
  let linux =
    run_side ~cfg ~seed ~make_controller:(fun env ->
        fst (Harness.linux_controller ~config:linux_config env))
  in
  { period; seuss; linux }

let scatter ~title side =
  let plot =
    Stats.Asciiplot.create ~yscale:Stats.Asciiplot.Log ~height:16 ~title
      ~xlabel:"request send time (s)" ~ylabel:"latency (s)" ()
  in
  let split series =
    Array.fold_left
      (fun (ok, bad) p ->
        let pt = (p.Stats.Series.time, Float.max 1e-4 p.Stats.Series.value) in
        if p.Stats.Series.ok then (pt :: ok, bad) else (ok, pt :: bad))
      ([], [])
      (Stats.Series.points series)
  in
  let bg_ok, bg_bad = split side.background in
  let b_ok, b_bad = split side.bursts in
  Stats.Asciiplot.add_series plot ~label:"background (IO-bound)" ~mark:'.' bg_ok;
  Stats.Asciiplot.add_series plot ~label:"burst (CPU-bound)" ~mark:'o' b_ok;
  Stats.Asciiplot.add_series plot ~label:"failed requests" ~mark:'x'
    (bg_bad @ b_bad);
  Stats.Asciiplot.render plot

let report r =
  let open Report in
  let errors side =
    Stats.Series.failures side.background + Stats.Series.failures side.bursts
  in
  let count side =
    Stats.Series.length side.background + Stats.Series.length side.bursts
  in
  let points backend stream series =
    Array.to_list
      (Array.map (fun p -> (backend, stream, p)) (Stats.Series.points series))
  in
  {
    title = Printf.sprintf "Figures 6-8: burst every %.0f s" r.period;
    sections =
      [
        params [ ("figure", Text "burst"); ("period_s", f (-1) r.period) ];
        text
          (Printf.sprintf
             "\n%s\n%s\nLinux:  %d requests, %d failed\nSEUSS:  %d requests, %d \
              failed\nPaper shape: Linux errors once its container cache \
              saturates and\nshows 10-60 s cold starts; SEUSS serves every \
              request with the\nbackground stream barely disturbed.\n"
             (scatter ~title:"Linux node" r.linux)
             (scatter ~title:"SEUSS node" r.seuss)
             (count r.linux) (errors r.linux) (count r.seuss) (errors r.seuss));
        table "requests"
          [
            col "backend" (fun (b, _, _) -> Text b);
            col "stream" (fun (_, s, _) -> Text s);
            col "send_time_s" (fun (_, _, p) -> f 4 p.Stats.Series.time);
            col "latency_s" (fun (_, _, p) -> f 5 p.Stats.Series.value);
            col "ok" (fun (_, _, p) -> Bool p.Stats.Series.ok);
          ]
          (points "linux" "background" r.linux.background
          @ points "linux" "burst" r.linux.bursts
          @ points "seuss" "background" r.seuss.background
          @ points "seuss" "burst" r.seuss.bursts);
      ];
  }
