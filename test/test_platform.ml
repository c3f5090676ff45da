(* Tests for the OpenWhisk-like platform pieces: workloads, controller,
   the load-generation benchmark and the burst harness. Includes small
   end-to-end runs against both backends. *)

module C = Platform.Controller
module LG = Platform.Loadgen

let gib n = Int64.mul (Int64.of_int n) (Int64.of_int (Mem.Mconfig.mib 1024))

let in_sim ?(seed = 5L) body =
  let engine = Sim.Engine.create ~seed () in
  let result = ref None in
  Sim.Engine.spawn engine ~name:"test" (fun () -> result := Some (body engine));
  Sim.Engine.run engine;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "simulation did not complete"

let register_io_server env =
  let io_listener = Net.Tcp.listener ~port:80 in
  Net.Http.serve ~listener:io_listener (fun _ ->
      Sim.Engine.sleep 0.25;
      Net.Http.ok "OK");
  Seuss.Osenv.register_host env "http://io-server" io_listener

let seuss_controller ?(budget_gib = 8) engine =
  let env = Seuss.Osenv.create ~budget_bytes:(gib budget_gib) engine in
  register_io_server env;
  let node = Seuss.Node.create env in
  Seuss.Node.start node;
  let shim = Seuss.Shim.create env node in
  C.create engine (C.Seuss_backend shim)

let linux_controller ?(budget_gib = 8) ?config engine =
  let env = Seuss.Osenv.create ~budget_bytes:(gib budget_gib) engine in
  register_io_server env;
  let node = Baselines.Linux_node.create ?config env in
  Baselines.Linux_node.start node;
  C.create engine (C.Linux_backend node)

(* {1 Workloads} *)

let test_workload_sources_compile () =
  List.iter
    (fun action ->
      let src = Platform.Workloads.source_of_action action in
      match Interp.Compile.compile src with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "workload source does not compile: %s" e)
    [
      Platform.Workloads.nop;
      Platform.Workloads.cpu_burst;
      Platform.Workloads.io_blocking ~url:"http://io-server/x";
    ]

(* {1 Loadgen} *)

let test_loadgen_counts_and_determinism () =
  let run_once () =
    in_sim (fun _engine ->
        let invoke ~fn_index =
          Sim.Engine.sleep (0.001 *. float_of_int (1 + (fn_index mod 3)));
          if fn_index = 7 then Error "boom" else Ok ()
        in
        LG.run ~invoke
          {
            LG.invocations = 200;
            fn_set_size = 10;
            client_threads = 4;
            seed = 9L;
            warmup = 0;
          })
  in
  let r1 = run_once () and r2 = run_once () in
  Alcotest.(check int) "successes + errors = N" 200
    (Stats.Summary.count r1.LG.latencies + r1.LG.errors);
  Alcotest.(check int) "errors are fn 7's 20 sends" 20 r1.LG.errors;
  Alcotest.(check (float 1e-9)) "deterministic wall time" r1.LG.wall_time
    r2.LG.wall_time;
  Alcotest.(check bool) "throughput positive" true (r1.LG.throughput > 0.0)

let test_loadgen_concurrency_bounded () =
  in_sim (fun _engine ->
      let inflight = ref 0 and peak = ref 0 in
      let invoke ~fn_index:_ =
        incr inflight;
        if !inflight > !peak then peak := !inflight;
        Sim.Engine.sleep 0.01;
        decr inflight;
        Ok ()
      in
      ignore
        (LG.run ~invoke
           {
             LG.invocations = 100;
             fn_set_size = 5;
             client_threads = 8;
             seed = 1L;
             warmup = 0;
           });
      Alcotest.(check int) "at most C in flight" 8 !peak)

let test_loadgen_warmup_excluded () =
  in_sim (fun _engine ->
      let r =
        LG.run
          ~invoke:(fun ~fn_index:_ ->
            Sim.Engine.sleep 0.001;
            Ok ())
          {
            LG.invocations = 50;
            fn_set_size = 5;
            client_threads = 2;
            seed = 1L;
            warmup = 10;
          }
      in
      Alcotest.(check int) "only measured portion recorded" 40
        (Stats.Summary.count r.LG.latencies))

let test_loadgen_rejects_bad_config () =
  Alcotest.(check bool) "warmup >= N rejected" true
    (in_sim (fun _ ->
         match
           LG.run
             ~invoke:(fun ~fn_index:_ -> Ok ())
             {
               LG.invocations = 5;
               fn_set_size = 1;
               client_threads = 1;
               seed = 1L;
               warmup = 5;
             }
         with
         | _ -> false
         | exception Invalid_argument _ -> true))

let test_loadgen_order_covers_all_functions () =
  (* N invocations over M functions: each function appears floor(N/M) or
     ceil(N/M) times in the send order. *)
  in_sim (fun _engine ->
      let counts = Hashtbl.create 16 in
      ignore
        (LG.run
           ~invoke:(fun ~fn_index ->
             Hashtbl.replace counts fn_index
               (1 + Option.value (Hashtbl.find_opt counts fn_index) ~default:0);
             Ok ())
           {
             LG.invocations = 100;
             fn_set_size = 7;
             client_threads = 3;
             seed = 4L;
             warmup = 0;
           });
      Alcotest.(check int) "all functions hit" 7 (Hashtbl.length counts);
      Hashtbl.iter
        (fun _ c ->
          Alcotest.(check bool) "balanced" true (c = 100 / 7 || c = (100 / 7) + 1))
        counts)

(* {1 Controller + backends end to end} *)

let test_seuss_end_to_end () =
  in_sim (fun engine ->
      let ctl = seuss_controller engine in
      let spec = { C.fn_id = "e2e"; action = Platform.Workloads.nop } in
      Alcotest.(check bool) "first ok" true (C.invoke ctl spec = Ok ());
      Alcotest.(check bool) "second ok" true (C.invoke ctl spec = Ok ());
      Alcotest.(check int) "counted" 2 (C.requests ctl))

let test_linux_end_to_end () =
  in_sim (fun engine ->
      let ctl = linux_controller engine in
      let spec = { C.fn_id = "e2e"; action = Platform.Workloads.nop } in
      Alcotest.(check bool) "first ok" true (C.invoke ctl spec = Ok ());
      Alcotest.(check bool) "second ok" true (C.invoke ctl spec = Ok ()))

let test_hot_path_linux_faster_than_seuss () =
  (* Figure 4 inset: at small set sizes (all-hot) Linux beats SEUSS
     because of the shim hop. *)
  let hot_latency make =
    in_sim (fun engine ->
        let ctl = make engine in
        let spec = { C.fn_id = "hot"; action = Platform.Workloads.nop } in
        ignore (C.invoke ctl spec);
        let t0 = Sim.Engine.now engine in
        Alcotest.(check bool) "ok" true (C.invoke ctl spec = Ok ());
        Sim.Engine.now engine -. t0)
  in
  let seuss = hot_latency (fun e -> seuss_controller e) in
  let linux = hot_latency (fun e -> linux_controller e) in
  Alcotest.(check bool) "linux hot beats seuss hot" true (linux < seuss);
  Alcotest.(check bool) "gap is the ~8 ms shim hop" true
    (seuss -. linux > 5e-3 && seuss -. linux < 12e-3)

let test_unique_function_throughput_seuss_wins () =
  (* Figure 4 right side in miniature: every invocation hits a new
     function. SEUSS pays a ~7.5 ms snapshot cold start; Linux pays a
     container creation. *)
  let throughput make =
    in_sim (fun engine ->
        let ctl = make engine in
        let r =
          LG.run
            ~invoke:(fun ~fn_index ->
              C.invoke ctl
                {
                  C.fn_id = Printf.sprintf "uniq-%d" fn_index;
                  action = Platform.Workloads.nop;
                })
            {
              LG.invocations = 64;
              fn_set_size = 64;
              client_threads = 8;
              seed = 2L;
              warmup = 0;
            }
        in
        r.LG.throughput)
  in
  let seuss = throughput (fun e -> seuss_controller e) in
  let linux = throughput (fun e -> linux_controller e) in
  Alcotest.(check bool) "seuss much faster on unique work" true
    (seuss > 5.0 *. linux)

(* {1 Burst harness} *)

let test_burst_on_seuss_no_errors () =
  in_sim (fun engine ->
      let ctl = seuss_controller engine in
      let cfg =
        {
          Platform.Burst.default with
          Platform.Burst.duration = 40.0;
          background_threads = 16;
          background_rate = 10.0;
          burst_period = 10.0;
          burst_size = 8;
          first_burst_at = 5.0;
        }
      in
      let r = Platform.Burst.run ~invoke:(fun spec -> C.invoke ctl spec) cfg in
      Alcotest.(check int) "no background errors" 0 r.Platform.Burst.background_errors;
      Alcotest.(check int) "no burst errors" 0 r.Platform.Burst.burst_errors;
      Alcotest.(check bool) "bursts fired" true
        (Stats.Series.length r.Platform.Burst.bursts >= 24);
      (* Background rate: ~10 rps for 40 s. *)
      let n_bg = Stats.Series.length r.Platform.Burst.background in
      Alcotest.(check bool) "background volume plausible" true
        (n_bg > 300 && n_bg <= 410))

let test_burst_io_latency_dominated_by_block () =
  in_sim (fun engine ->
      let ctl = seuss_controller engine in
      let cfg =
        {
          Platform.Burst.default with
          Platform.Burst.duration = 20.0;
          background_threads = 8;
          background_rate = 5.0;
          burst_period = 100.0 (* effectively no bursts *);
          first_burst_at = 50.0;
          burst_size = 1;
        }
      in
      let r = Platform.Burst.run ~invoke:(fun spec -> C.invoke ctl spec) cfg in
      let pts = Stats.Series.points r.Platform.Burst.background in
      Alcotest.(check bool) "have background points" true (Array.length pts > 50);
      (* Steady-state IO latency = 250 ms block + platform overheads. *)
      let steady =
        Array.to_list pts |> List.filter (fun p -> p.Stats.Series.time > 5.0)
      in
      List.iter
        (fun p ->
          Alcotest.(check bool) "latency >= block" true
            (p.Stats.Series.value >= 0.25))
        steady)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "platform"
    [
      ("workloads", [ case "sources compile" test_workload_sources_compile ]);
      ( "loadgen",
        [
          case "counts and determinism" test_loadgen_counts_and_determinism;
          case "concurrency bounded" test_loadgen_concurrency_bounded;
          case "warmup excluded" test_loadgen_warmup_excluded;
          case "bad config rejected" test_loadgen_rejects_bad_config;
          case "order covers all" test_loadgen_order_covers_all_functions;
        ] );
      ( "end_to_end",
        [
          case "seuss" test_seuss_end_to_end;
          case "linux" test_linux_end_to_end;
          case "hot: linux beats seuss" test_hot_path_linux_faster_than_seuss;
          case "unique: seuss wins big" test_unique_function_throughput_seuss_wins;
        ] );
      ( "burst",
        [
          case "seuss handles bursts" test_burst_on_seuss_no_errors;
          case "io latency floor" test_burst_io_latency_dominated_by_block;
        ] );
    ]
