let default_budget = Mem.Mconfig.default_budget_bytes

(* Arming: every hook below is applied from one Run_config.t, the
   enclosing with_run's (every run_sim is one), so the nodes an
   experiment body builds agree with the engine it runs on. Outside any
   with_run it is the environment's, parsed here at the boundary — a
   malformed variable fails the run instead of silently disarming it. *)
let active : Run_config.t option ref = ref None

let resolve () =
  match !active with
  | Some run -> run
  | None -> (
      match Run_config.of_env () with
      | Ok run -> run
      | Error msg -> invalid_arg ("Harness: " ^ msg))

(* Fault plane: a nonzero rate arms every injection site. The plan seed
   is derived from the run seed by a fixed xor (never split off the
   engine stream), so one run seed fully determines the failure
   sequence; [fault_seed] overrides it. *)
let fault_seed_xor = 0x5EEDFA17L

let install_faults (run : Run_config.t) ~seed engine =
  if run.fault_rate > 0.0 then
    let seed =
      match run.fault_seed with
      | Some s -> s
      | None -> Int64.logxor seed fault_seed_xor
    in
    Faults.Fault.install
      (Faults.Fault.make ~seed
         ~rates:
           (List.map (fun site -> (site, run.fault_rate)) Faults.Fault.all_sites)
         engine)

(* Post-mortems of every run_sim inside the outermost with_run (a
   multi-run row is one), recorded before the completion check so a
   stuck experiment still leaves them behind. *)
let last_stuck = ref 0
let last_stranded : Sim.Engine.stranded list ref = ref []
let last_stuck_waiters () = !last_stuck
let last_stranded_waiters () = !last_stranded

let last_leaked : (string * Seuss.Node.census) list ref = ref []
let last_leaked_resources () = !last_leaked

let with_run run f =
  let outer = !active in
  if Option.is_none outer then begin
    last_stuck := 0;
    last_stranded := [];
    last_leaked := []
  end;
  active := Some run;
  Fun.protect ~finally:(fun () -> active := outer) f

let run_sim ?(seed = 7L) body =
  let run = resolve () in
  with_run run (fun () ->
      (* The tie shuffler and the checkers are engine arguments. Race,
         deadlock and leak reports surface as San_* events on the env
         log (see Osenv.create); a healthy checked run emits nothing,
         so it stays byte-identical to an unchecked one — test_arms's
         sweep depends on this. *)
      let engine =
        Sim.Engine.create ~seed ?tie_seed:run.Run_config.tie_seed
          ~check:run.Run_config.check ()
      in
      install_faults run ~seed engine;
      let result = ref None in
      Sim.Engine.spawn engine ~name:"experiment" (fun () ->
          result := Some (body engine));
      Sim.Engine.run engine;
      last_stuck := !last_stuck + Sim.Engine.stuck_waiters engine;
      last_stranded := !last_stranded @ Sim.Engine.stranded_waiters engine;
      last_leaked := !last_leaked @ Seuss.Node.leaks engine;
      match !result with
      | Some v -> v
      | None -> failwith "experiment did not complete")

let make_seuss_env ?(budget_bytes = default_budget) engine =
  let env = Seuss.Osenv.create ~budget_bytes engine in
  let io_listener = Net.Tcp.listener ~port:80 in
  Net.Http.serve ~listener:io_listener (fun _ ->
      Sim.Engine.sleep 0.25;
      Net.Http.ok "OK");
  Seuss.Osenv.register_host env "http://io-server" io_listener;
  env

(* Node hooks only ever switch something on: prefault and a nonzero
   store budget override the config, and an off value leaves it alone,
   so an off run is bit-identical to an unhooked one. *)
let armed_config config =
  let run = resolve () in
  let config =
    if run.prefault then
      { config with Seuss.Config.prefault_working_set = true }
    else config
  in
  let config =
    if Int64.compare run.snap_cache_bytes 0L > 0 then
      { config with Seuss.Config.snapshot_cache_bytes = run.snap_cache_bytes }
    else config
  in
  match run.snap_policy with
  | None -> config
  | Some p -> { config with Seuss.Config.snapshot_cache_policy = p }

let seuss_node ?(config = Seuss.Config.default) env =
  let node = Seuss.Node.create ~config:(armed_config config) env in
  Seuss.Node.start node;
  node

let nop_source = Platform.Workloads.source_of_action Platform.Workloads.nop

let nop_fn i =
  {
    Seuss.Node.fn_id = Printf.sprintf "nop-%d" i;
    runtime = Unikernel.Image.Node;
    source = nop_source;
  }

type 'path outcome =
  | Served of float
  | Off_path of 'path
  | Failed of Seuss.Node.invoke_error

let invoke engine ~failed ?latency ~expect call =
  let t0 = Sim.Engine.now engine in
  let outcome =
    match call () with
    | Error e, _ -> Failed e
    | Ok _, path when List.mem path expect ->
        Served (Sim.Engine.now engine -. t0)
    | Ok _, path -> Off_path path
  in
  (match outcome with
  | Served dt -> Option.iter (fun s -> Stats.Summary.add s dt) latency
  | Off_path _ | Failed _ -> incr failed);
  outcome

let shim_controller env node =
  Platform.Controller.create env.Seuss.Osenv.engine
    (Platform.Controller.Seuss_backend (Seuss.Shim.create env node))

let seuss_controller env =
  let node = seuss_node env in
  (shim_controller env node, node)

let linux_controller ?config env =
  let node = Baselines.Linux_node.create ?config env in
  Baselines.Linux_node.start node;
  (Platform.Controller.create env.Seuss.Osenv.engine
     (Platform.Controller.Linux_backend node),
   node)

(* {1 One open-loop replay} *)

type backend =
  | Seuss of Seuss.Config.t
  | Linux
  | Pool of Baselines.Pool_node.kind

type mix = { cold : int; warm : int; hot : int }

type replay = {
  result : Workload.Replay.result;
  mix : mix;
  tails : Obs.Breakdown.tails option;
  node : Seuss.Node.t option;
  timeline : Seuss.Timeline.sample list;
}

let fn_action fn =
  let ms = Workload.Fnset.work_ms fn in
  if ms = 0.0 then Baselines.Backend_intf.Nop
  else Baselines.Backend_intf.Cpu_ms ms

let replay ?seed ?timeline backend trace =
  run_sim ?seed (fun engine ->
      let env = make_seuss_env engine in
      let bd = Obs.Breakdown.attach env.Seuss.Osenv.log in
      let controller, mix, node, samples =
        match backend with
        | Seuss config ->
            let node = Seuss.Node.create ~config env in
            Seuss.Node.start node;
            let controller = shim_controller env node in
            (* The sampler's daemon spawns last, after the control
               plane; it draws nothing, so it perturbs no measured
               quantity. *)
            let samples =
              Option.map (fun period -> Seuss.Timeline.start ~period node)
                timeline
            in
            ( controller,
              (fun () ->
                let st = Seuss.Node.stats node in
                {
                  cold = st.Seuss.Node.cold;
                  warm = st.Seuss.Node.warm;
                  hot = st.Seuss.Node.hot;
                }),
              Some node,
              samples )
        | Linux ->
            let controller, node = linux_controller env in
            ( controller,
              (fun () ->
                let st = Baselines.Linux_node.stats node in
                {
                  cold = st.Baselines.Linux_node.creates;
                  warm = st.Baselines.Linux_node.stemcell_hits;
                  hot = st.Baselines.Linux_node.warm_hits;
                }),
              None,
              None )
        | Pool kind ->
            let node = Baselines.Pool_node.create ~kind env in
            ( Platform.Controller.create engine
                (Platform.Controller.Pool_backend node),
              (fun () ->
                let st = Baselines.Pool_node.stats node in
                {
                  cold = st.Baselines.Pool_node.creates;
                  warm = 0;
                  hot = st.Baselines.Pool_node.warm_hits;
                }),
              None,
              None )
      in
      let result =
        Workload.Replay.run
          ~invoke:(fun ~fn ->
            Platform.Controller.invoke_custom controller
              ~fn_id:(Workload.Fnset.fn_id fn) ~action:(fn_action fn)
              ~source:(Workload.Fnset.source fn))
          trace
      in
      {
        result;
        mix = mix ();
        tails = Obs.Breakdown.overall_tails bd;
        node;
        timeline = (match samples with Some read -> read () | None -> []);
      })

let percentile_ms lat p =
  if Stats.Summary.count lat = 0 then 0.0
  else Stats.Summary.percentile lat p *. 1e3
