(** Common experiment plumbing: build a simulated compute node (SEUSS or
    Linux), the external IO endpoint, and the platform stack around it,
    then run a body inside the simulation. One fresh deployment per
    trial, like the paper.

    The harness is where a run is armed. Every entry point below that
    takes [?run] applies that {!Run_config.t}; when it is omitted, the
    enclosing {!with_run}'s configuration is used (every {!run_sim} is
    one), and outside any the environment's ({!Run_config.of_env}).
    @raise Invalid_argument when the configuration has to be read from
    a malformed environment. *)

val with_run : Run_config.t -> (unit -> 'a) -> 'a
(** [with_run run f] calls [f] with [run] as the enclosing
    configuration, restored on return or raise. Experiments called
    inside it without an explicit [?run] are armed by [run], whatever
    the environment says: a binary that parsed the environment once
    wraps its commands in it, and a test compares arms in one process
    without touching the environment. An explicit [?run] still wins. *)

val make_engine : ?run:Run_config.t -> seed:int64 -> unit -> Sim.Engine.t
(** A fresh engine armed per [run]: tie shuffler, deadlock detector and
    ownership census through {!Sim.Engine.create}, and the
    happens-before checker ({!Sim.Hb}) enabled before anything spawns.
    For subcommands and tests that drive an engine themselves. *)

val run_sim : ?run:Run_config.t -> ?seed:int64 -> (Sim.Engine.t -> 'a) -> 'a
(** Spawn the body as a simulation process on a {!make_engine} engine
    and drive it until it completes, all inside {!with_run}. With a nonzero
    [run.fault_rate], a fault plan with every site at that rate is
    installed first, seeded by [seed xor fault_seed_xor] (or
    [run.fault_seed]): the derivation never draws from the engine
    stream. After the run the engine's stuck-waiter count and stranded
    report are recorded and readable via {!last_stuck_waiters} /
    {!last_stranded_waiters}. *)

val last_stuck_waiters : unit -> int
(** {!Sim.Engine.stuck_waiters} of the most recent {!run_sim} engine at
    quiescence: non-daemon processes that were still parked when the
    event queue drained. Meaningful even with the detector off; [0]
    for a clean experiment. *)

val last_leaked_resources : unit -> (string * Seuss.Node.census) list
(** Per-node nonzero censuses of the most recent {!run_sim}, in node
    creation order. Always [[]] unless [run.own] armed the census —
    and, on a leak-free tree, also [[]] when it did. *)

val last_stranded_waiters : unit -> Sim.Engine.stranded list
(** {!Sim.Engine.stranded_waiters} of the most recent {!run_sim} run —
    [[]] unless [run.deadlock] armed the detector. *)

val fault_seed_xor : int64
(** The fixed constant mixed into the run seed to derive a fault-plan
    seed ([0x5EEDFA17]); shared by {!run_sim} and [fig_chaos] so one
    run seed fully determines the failure sequence. *)

val make_seuss_env :
  ?budget_bytes:int64 -> ?io_delay:float -> Sim.Engine.t -> Seuss.Osenv.t
(** An 88 GB/16-core environment with the external blocking HTTP
    endpoint registered as ["http://io-server"]. *)

val seuss_node :
  ?run:Run_config.t ->
  ?config:Seuss.Config.t ->
  ?timeline:bool ->
  Seuss.Osenv.t ->
  Seuss.Node.t
(** Create and start a SEUSS node (blocking: boots the runtime). [run]
    can switch on working-set prefault and the snapshot store (with its
    policy) over [config], sets the node's trace sampling, attaches the
    resource timeline sampler, and always registers the ownership
    census (inert unless the engine armed it). [timeline] overrides
    [run.timeline]: a caller attaching its own sampler passes [false],
    since two samplers on one engine keep each other alive and the run
    never quiesces. Experiments needing fixed arms (e.g. [Fig_reap],
    [Fig_evict]) build their nodes directly. *)

val seuss_controller :
  ?config:Seuss.Config.t ->
  ?timeline:bool ->
  Seuss.Osenv.t ->
  Platform.Controller.t * Seuss.Node.t
(** Node + shim + OpenWhisk controller; [timeline] as in {!seuss_node}. *)

val linux_controller :
  ?config:Baselines.Linux_node.config ->
  Seuss.Osenv.t ->
  Platform.Controller.t * Baselines.Linux_node.t

val pool_controller :
  ?config:Baselines.Pool_node.config ->
  kind:Baselines.Pool_node.kind ->
  Seuss.Osenv.t ->
  Platform.Controller.t * Baselines.Pool_node.t
(** Warm-instance-cache node over the Firecracker or Process backend
    behind the same OpenWhisk control plane — the microVM and process
    arms of the load experiments. *)

val default_budget : int64
(** 88 GiB — the paper's compute node VM. *)
