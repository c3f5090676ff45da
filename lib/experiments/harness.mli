(** Common experiment plumbing: build a simulated compute node (SEUSS or
    Linux), the external IO endpoint, and the platform stack around it,
    then run a body inside the simulation. One fresh deployment per
    trial, like the paper.

    The harness is where a run is armed. {!run_sim} applies its [?run]
    {!Run_config.t}; when it is omitted, and for every node
    {!seuss_node} builds, the enclosing {!with_run}'s configuration is
    used (every {!run_sim} is one), and outside any the environment's
    ({!Run_config.of_env}).
    @raise Invalid_argument when the configuration has to be read from
    a malformed environment. *)

val with_run : Run_config.t -> (unit -> 'a) -> 'a
(** [with_run run f] calls [f] with [run] as the enclosing
    configuration, restored on return or raise. Experiments called
    inside it without an explicit [?run] are armed by [run], whatever
    the environment says: a binary that parsed the environment once
    wraps its commands in it, and a test compares arms in one process
    without touching the environment. An explicit [?run] still wins. *)

val run_sim : ?run:Run_config.t -> ?seed:int64 -> (Sim.Engine.t -> 'a) -> 'a
(** Spawn the body as a simulation process on a fresh engine armed per
    [run] and drive it until it completes, all inside {!with_run}. The
    engine carries the tie shuffler, deadlock detector and ownership
    census, and the happens-before checker ({!Sim.Hb}) is enabled
    before anything spawns; this is the only way to get an armed
    engine. With a nonzero [run.fault_rate], a fault
    plan with every site at that rate is installed first, seeded by
    [seed xor fault_seed_xor] (or [run.fault_seed]): the derivation
    never draws from the engine stream. After the run the engine's
    stuck-waiter count and stranded report are recorded and readable
    via {!last_stuck_waiters} / {!last_stranded_waiters}. *)

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

val make_seuss_env : ?budget_bytes:int64 -> Sim.Engine.t -> Seuss.Osenv.t
(** An 88 GB/16-core environment with the external blocking HTTP
    endpoint registered as ["http://io-server"], which answers after
    250 ms. *)

val seuss_node : ?config:Seuss.Config.t -> Seuss.Osenv.t -> Seuss.Node.t
(** Create and start a SEUSS node (blocking: boots the runtime). The
    enclosing run (see {!with_run}) can switch on working-set prefault
    and the snapshot store (with its policy) over [config], and the
    node is registered with {!arm_census}. Span capture and the
    resource timeline are started by the command that prints them, not
    here. Experiments needing fixed arms (e.g. [Fig_reap], [Fig_evict])
    build their nodes directly and call {!arm_census} themselves. *)

val arm_census : Seuss.Node.t -> unit
(** Register the node's ownership census ({!Seuss.Node.arm_census})
    under a process-unique name; a nonzero census at quiescence shows
    up in {!last_leaked_resources}. Inert unless the engine armed the
    census. For nodes built outside {!seuss_node}, such as a
    {!Cluster.Drseuss} cluster's members. *)

val nop_fn : int -> Seuss.Node.fn
(** The NOP JavaScript function with id ["nop-<i>"]: the paper's
    microbenchmark function. *)

(** {1 One invocation}

    The direct-node experiments time single calls. {!invoke} runs one,
    classifies it, and keeps the driver's tally, so a call that fails
    under the fault plan is counted instead of aborting the row. *)

type 'path outcome =
  | Served of float
      (** on an expected path; simulated latency in seconds *)
  | Off_path of 'path  (** served, but on another path *)
  | Failed of Seuss.Node.invoke_error

val invoke :
  Sim.Engine.t ->
  failed:int ref ->
  ?latency:Stats.Summary.t ->
  expect:'path list ->
  (unit -> (string, Seuss.Node.invoke_error) result * 'path) ->
  'path outcome
(** [invoke engine ~failed ?latency ~expect call] runs [call] once and
    times it on the engine clock. The path type is the caller's:
    {!Seuss.Node.path} for a node or shim, {!Cluster.Drseuss.source}
    for a cluster. Only a [Served] call adds its latency to [latency];
    the other two outcomes increment [failed]. *)

val seuss_controller : Seuss.Osenv.t -> Platform.Controller.t * Seuss.Node.t
(** Node + shim + OpenWhisk controller, node as in {!seuss_node} with
    the default config. *)

val linux_controller :
  ?config:Baselines.Linux_node.config ->
  Seuss.Osenv.t ->
  Platform.Controller.t * Baselines.Linux_node.t

val pool_controller :
  kind:Baselines.Pool_node.kind ->
  Seuss.Osenv.t ->
  Platform.Controller.t * Baselines.Pool_node.t
(** Warm-instance-cache node over the Firecracker or Process backend
    behind the same OpenWhisk control plane — the microVM and process
    arms of the load experiments. *)

val default_budget : int64
(** 88 GiB — the paper's compute node VM. *)
