type panel = {
  set_size : int;
  seuss : Stats.Summary.digest;
  linux : Stats.Summary.digest;
  seuss_errors : int;
  linux_errors : int;
}

let run_side ~seed ~requests ~client_threads ~make_controller m =
  Harness.run_sim ~seed (fun engine ->
      let env = Harness.make_seuss_env engine in
      let controller = make_controller env in
      let warmup = min 256 (requests / 4) in
      let r =
        Platform.Loadgen.run
          ~invoke:(fun ~fn_index ->
            Platform.Controller.invoke controller
              {
                Platform.Controller.fn_id = Printf.sprintf "fn-%d" fn_index;
                action = Platform.Workloads.nop;
              })
          {
            Platform.Loadgen.invocations = requests + warmup;
            fn_set_size = m;
            client_threads;
            seed;
            warmup;
          }
      in
      let digest =
        if Stats.Summary.count r.Platform.Loadgen.latencies > 0 then
          Stats.Summary.digest r.Platform.Loadgen.latencies
        else
          {
            Stats.Summary.n = 0;
            mean = 0.0;
            p01 = 0.0;
            p25 = 0.0;
            p50 = 0.0;
            p75 = 0.0;
            p99 = 0.0;
            min = 0.0;
            max = 0.0;
          }
      in
      (digest, r.Platform.Loadgen.errors))

let run ?(set_sizes = [ 64; 2048; 65536 ]) ?(requests = 2048)
    ?(client_threads = 32) ?(seed = 23L) () =
  List.map
    (fun m ->
      let seuss, seuss_errors =
        run_side ~seed ~requests ~client_threads
          ~make_controller:(fun env -> fst (Harness.seuss_controller env))
          m
      in
      let linux, linux_errors =
        run_side ~seed ~requests ~client_threads
          ~make_controller:(fun env -> fst (Harness.linux_controller env))
          m
      in
      { set_size = m; seuss; linux; seuss_errors; linux_errors })
    set_sizes

let report panels =
  let open Report in
  let pct head key sel =
    col ~head key (fun (_, _, (d : Stats.Summary.digest), _) -> f 1 (sel d *. 1e3))
  in
  let backends p =
    [
      ("SEUSS", "seuss", p.seuss, p.seuss_errors);
      ("Linux", "linux", p.linux, p.linux_errors);
    ]
  in
  {
    title = "Figure 5: end-to-end latency percentiles";
    sections =
      [
        params [ ("figure", Text "fig5") ];
        text "(latencies in ms)\n";
        nested "panels"
          [ col ~head:"Set size" "set_size" (fun p -> Int p.set_size) ]
          "backends"
          [
            col ~head:"Backend" ~align:Left "" (fun (name, _, _, _) -> Text name);
            col "backend" (fun (_, key, _, _) -> Text key);
            pct "p1" "p1_ms" (fun d -> d.Stats.Summary.p01);
            pct "p25" "p25_ms" (fun d -> d.Stats.Summary.p25);
            pct "p50" "p50_ms" (fun d -> d.Stats.Summary.p50);
            pct "p75" "p75_ms" (fun d -> d.Stats.Summary.p75);
            pct "p99" "p99_ms" (fun d -> d.Stats.Summary.p99);
            pct "mean" "mean_ms" (fun d -> d.Stats.Summary.mean);
            col ~head:"errors" "errors" (fun (_, _, _, errors) -> Int errors);
          ]
          backends panels;
        text
          "\nPaper shape: comparable at 64 functions (Linux slightly ahead);\n\
           Linux median and p99 explode once its container cache saturates,\n\
           while SEUSS stays in single-digit milliseconds.\n";
      ];
  }
