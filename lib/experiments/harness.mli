(** Common experiment plumbing: build a simulated compute node (SEUSS or
    Linux), the external IO endpoint, and the platform stack around it,
    then run a body inside the simulation. One fresh deployment per
    trial, like the paper.

    The harness is where a run is armed. {!run_sim}, and every node
    {!seuss_node} builds, use the enclosing {!with_run}'s
    {!Run_config.t} (every {!run_sim} is one), and outside any the
    environment's ({!Run_config.of_env}).
    @raise Invalid_argument when the configuration has to be read from
    a malformed environment. *)

val with_run : Run_config.t -> (unit -> 'a) -> 'a
(** [with_run run f] calls [f] with [run] as the enclosing
    configuration, restored on return or raise. Experiments called
    inside it are armed by [run], whatever the environment says: a
    binary that parsed the environment once wraps its commands in it,
    and a test compares arms in one process without touching the
    environment. *)

val run_sim : ?seed:int64 -> (Sim.Engine.t -> 'a) -> 'a
(** Spawn the body as a simulation process on a fresh engine armed per
    the enclosing configuration [run] (see {!with_run}) and drive it
    until it completes, all inside {!with_run}. The
    engine carries the tie shuffler, deadlock detector and ownership
    census, and the happens-before checker ({!Sim.Hb}) is enabled
    before anything spawns; this is the only way to get an armed
    engine. With a nonzero [run.fault_rate], a fault
    plan with every site at that rate is installed first, seeded by
    [seed xor fault_seed_xor] (or [run.fault_seed]): the derivation
    never draws from the engine stream. After the run the engine's
    stuck-waiter count, stranded report and leak census are added to
    the post-mortems below. *)

(** {1 Post-mortems}

    Each covers every {!run_sim} since the outermost {!with_run} began
    (a {!run_sim} outside any is its own outermost scope), so a row
    that runs several simulations reports all of them, not only the
    last. *)

val last_stuck_waiters : unit -> int
(** The sum of {!Sim.Engine.stuck_waiters} over those engines at
    quiescence: non-daemon processes that were still parked when the
    event queue drained. Meaningful even with the detector off; [0]
    for a clean experiment. *)

val last_leaked_resources : unit -> (string * Seuss.Node.census) list
(** {!Seuss.Node.leaks} of those engines, in run order: per-node
    nonzero censuses, in node creation order. Always [[]] unless
    [run.own] armed the census — and, on a leak-free tree, also [[]]
    when it did. *)

val last_stranded_waiters : unit -> Sim.Engine.stranded list
(** {!Sim.Engine.stranded_waiters} of those runs, in run order — [[]]
    unless [run.deadlock] armed the detector. *)

val fault_seed_xor : int64
(** The fixed constant mixed into the run seed to derive a fault-plan
    seed ([0x5EEDFA17]); shared by {!run_sim} and [fig_chaos] so one
    run seed fully determines the failure sequence. *)

val make_seuss_env : ?budget_bytes:int64 -> Sim.Engine.t -> Seuss.Osenv.t
(** An 88 GB/16-core environment with the external blocking HTTP
    endpoint registered as ["http://io-server"], which answers after
    250 ms. *)

val armed_config : Seuss.Config.t -> Seuss.Config.t
(** [config] with the enclosing run's node overrides applied (see
    {!with_run}): working-set prefault and the snapshot store with its
    policy. An off override leaves its field alone. *)

val seuss_node : ?config:Seuss.Config.t -> Seuss.Osenv.t -> Seuss.Node.t
(** Create a node from {!armed_config} [config] and start it (blocking:
    boots the runtime). Span capture and the resource timeline are
    started by the command that prints them, not here. Experiments
    needing fixed arms (e.g. [Fig_reap], [Fig_evict]) pass their exact
    config to {!Seuss.Node.create} or {!replay} instead. Every node
    registers its own ownership census on an armed engine (see
    {!Seuss.Node.create}). *)

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

(** {1 One open-loop replay}

    The open-loop rows replay a trace through the OpenWhisk control
    plane against one backend per fresh simulation. *)

type backend =
  | Seuss of Seuss.Config.t
      (** a SEUSS node from exactly this config, behind the shim; pass
          {!armed_config} of a config to apply the run's overrides *)
  | Linux  (** the Linux container node *)
  | Pool of Baselines.Pool_node.kind
      (** a warm-instance cache over the Firecracker or Process backend *)

type mix = { cold : int; warm : int; hot : int }
(** How the backend served the calls. Linux counts creations, stemcell
    hits and warm hits; a pool counts creations and warm hits. *)

type replay = {
  result : Workload.Replay.result;
  mix : mix;
  tails : Obs.Breakdown.tails option;
      (** event-log breakdown tails over every path; only a SEUSS node
          logs its calls, so [None] for the other backends *)
  node : Seuss.Node.t option;  (** the SEUSS node, read after the run *)
  timeline : Seuss.Timeline.sample list;
      (** resource samples, with [?timeline] on a SEUSS backend *)
}

val replay :
  ?seed:int64 ->
  ?timeline:float ->
  backend ->
  Workload.Trace.t ->
  replay
(** Replay [trace] open-loop against [backend] in a fresh {!run_sim}
    from [seed]. Each call's action is [Fnset.work_ms] of CPU (a NOP
    at 0). With [timeline] (a sampling period) on a SEUSS backend, the
    resource sampler runs for the whole replay. *)

val percentile_ms : Stats.Summary.t -> float -> float
(** A latency percentile in milliseconds, [0.0] for no samples. *)

val default_budget : int64
(** 88 GiB — the paper's compute node VM. *)
