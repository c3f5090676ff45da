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

(* The tie shuffler, deadlock detector and ownership census are engine
   arguments; the happens-before checker is armed before anything
   spawns, so spawn edges are tracked from the root process down. Race,
   deadlock and leak reports surface as San_* events on the env log
   (see Osenv.create); a healthy armed run emits nothing, so it stays
   byte-identical to an unarmed one — test_arms's sweep depends on
   this. *)
let make_engine ?run ~seed () =
  let run = resolve run in
  let engine =
    Sim.Engine.create ~seed ?tie_seed:run.Run_config.tie_seed
      ~deadlock:run.Run_config.deadlock ~own:run.Run_config.own ()
  in
  if run.Run_config.hb then ignore (Sim.Hb.enable engine);
  engine

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
      let engine = make_engine ~run ~seed () in
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

let make_seuss_env ?(budget_bytes = default_budget) ?(io_delay = 0.25) engine =
  let env = Seuss.Osenv.create ~budget_bytes engine in
  let io_listener = Net.Tcp.listener ~port:80 in
  Net.Http.serve ~listener:io_listener (fun _ ->
      Sim.Engine.sleep io_delay;
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

let seuss_node ?run ?(config = Seuss.Config.default) ?timeline env =
  let run = resolve run in
  let node =
    Seuss.Node.create ~config:(arm_config run config)
      ?trace_sample:run.Run_config.trace_sample env
  in
  if Option.value timeline ~default:run.Run_config.timeline then
    Seuss.Timeline.start node;
  let name = Printf.sprintf "node%d" !node_seq in
  incr node_seq;
  Seuss.Node.arm_census ~name
    ~on_leak:(fun c -> last_leaked := (name, c) :: !last_leaked)
    node;
  Seuss.Node.start node;
  node

let seuss_controller ?config ?timeline env =
  let node = seuss_node ?config ?timeline env in
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

let pool_controller ?config ~kind env =
  let node = Baselines.Pool_node.create ?config ~kind env in
  (Platform.Controller.create env.Seuss.Osenv.engine
     (Platform.Controller.Pool_backend node),
   node)
