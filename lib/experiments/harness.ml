let default_budget = Mem.Mconfig.default_budget_bytes

(* Arming: every hook below is applied from one Run_config.t. A caller
   that omits it gets the environment's, parsed here at the boundary — a
   malformed variable fails the run instead of silently disarming it.
   [active] is the configuration of the enclosing with_run (every
   run_sim is one), so the nodes an experiment body builds agree with
   the engine it runs on. *)
let active : Run_config.t option ref = ref None

let resolve = function
  | Some run -> run
  | None -> (
      match !active with
      | Some run -> run
      | None -> (
          match Run_config.of_env () with
          | Ok run -> run
          | Error msg -> invalid_arg ("Harness: " ^ msg)))

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

(* Post-mortems of the most recent run_sim, recorded before the
   completion check so a stuck experiment still leaves them behind. *)
let last_stuck = ref 0
let last_stranded : Sim.Engine.stranded list ref = ref []
let last_stuck_waiters () = !last_stuck
let last_stranded_waiters () = !last_stranded

let last_leaked : (string * Seuss.Node.census) list ref = ref []
let last_leaked_resources () = List.rev !last_leaked

(* Distinguish the nodes of one process in census reports; leaks are
   exceptional, so the numbering never reaches healthy output. *)
let node_seq = ref 0

let with_run run f =
  let outer = !active in
  active := Some run;
  Fun.protect ~finally:(fun () -> active := outer) f

let run_sim ?run ?(seed = 7L) body =
  let run = resolve run in
  with_run run (fun () ->
      (* The tie shuffler, deadlock detector and ownership census are
         engine arguments; the happens-before checker is armed before
         anything spawns, so spawn edges are tracked from the root
         process down. Race, deadlock and leak reports surface as San_*
         events on the env log (see Osenv.create); a healthy armed run
         emits nothing, so it stays byte-identical to an unarmed one —
         test_arms's sweep depends on this. *)
      let engine =
        Sim.Engine.create ~seed ?tie_seed:run.Run_config.tie_seed
          ~deadlock:run.Run_config.deadlock ~own:run.Run_config.own ()
      in
      if run.Run_config.hb then ignore (Sim.Hb.enable engine);
      install_faults run ~seed engine;
      last_leaked := [];
      let result = ref None in
      Sim.Engine.spawn engine ~name:"experiment" (fun () ->
          result := Some (body engine));
      Sim.Engine.run engine;
      last_stuck := Sim.Engine.stuck_waiters engine;
      last_stranded := Sim.Engine.stranded_waiters engine;
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
let arm_config (run : Run_config.t) config =
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

let arm_census node =
  let name = Printf.sprintf "node%d" !node_seq in
  incr node_seq;
  Seuss.Node.arm_census ~name
    ~on_leak:(fun c -> last_leaked := (name, c) :: !last_leaked)
    node

let seuss_node ?(config = Seuss.Config.default) env =
  let node = Seuss.Node.create ~config:(arm_config (resolve None) config) env in
  arm_census node;
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

let seuss_controller env =
  let node = seuss_node env in
  let shim = Seuss.Shim.create env node in
  (Platform.Controller.create env.Seuss.Osenv.engine
     (Platform.Controller.Seuss_backend shim),
   node)

let linux_controller ?config env =
  let node = Baselines.Linux_node.create ?config env in
  Baselines.Linux_node.start node;
  (Platform.Controller.create env.Seuss.Osenv.engine
     (Platform.Controller.Linux_backend node),
   node)

let pool_controller ~kind env =
  let node = Baselines.Pool_node.create ~kind env in
  (Platform.Controller.create env.Seuss.Osenv.engine
     (Platform.Controller.Pool_backend node),
   node)
