(** Deterministic, seed-driven fault injection.

    The paper's §9 DR-SEUSS vision assumes a cluster that survives node
    crashes, snapshot-fetch failures and fabric partitions; this module
    is the plane those failures are injected through. A {!plan} owns a
    private splitmix64 stream and a per-{!site} probability table;
    injection sites across the stack ([Net.Tcp], [Seuss.Node],
    [Cluster.Drseuss]) consult the plan of the running engine via
    {!fire}. Three properties make it a test oracle rather than a chaos
    monkey:

    - {b determinism}: every decision draws from the plan's own PRNG, in
      program order, so one seed reproduces one failure sequence exactly
      (and {!history} records it for assertion);
    - {b zero-rate transparency}: with no plan installed — or a rate of
      [0.0] for a site — a check makes {e no} PRNG draw and costs no
      simulated time, so un-faulted runs are bit-identical to runs of a
      build without the fault plane;
    - {b isolation}: the plan's stream is split off the engine's at
      creation (or seeded explicitly), never shared, so arming faults
      cannot perturb workload randomness. *)

(** Injection sites. Each is consulted by the subsystem that owns the
    failure mode; see DESIGN.md §8 for the wiring table. *)
type site =
  | Uc_kill  (** a running UC dies mid-request ([Seuss.Node]) *)
  | Capture_fail  (** snapshot capture fails after compile ([Seuss.Node]) *)
  | Oom_storm  (** transient memory pressure evicts all idle UCs *)
  | Net_drop  (** a SYN is dropped ([Net.Tcp.connect]) *)
  | Net_delay  (** a send stalls for [delay_spike] seconds *)
  | Partition  (** fabric cut between a node pair (scheduled, not drawn) *)
  | Node_crash  (** a whole cluster node dies ([Cluster.Drseuss]) *)
  | Registry_stale  (** a registry holder entry is stale at fetch time *)

val all_sites : site list

val site_name : site -> string

val site_of_name : string -> site option

exception Injected_crash of string
(** The exception a deliberately-crashed process dies with; pair with
    {!Sim.Engine.spawn_supervised} to kill one process without aborting
    the run. *)

val crash : string -> 'a
(** [crash detail] raises {!Injected_crash}. *)

type record = { time : float; site : site; detail : string }

type plan

val make :
  ?seed:int64 ->
  ?delay_spike:float ->
  ?rates:(site * float) list ->
  Sim.Engine.t ->
  plan
(** [make engine] is a fresh plan. [seed] fixes the plan's private PRNG;
    by default it is split off the engine's stream (one draw, at
    creation only), so the engine seed alone determines the failure
    sequence. [rates] gives each site's per-check fire probability
    (absent sites never fire); [delay_spike] (default 20 ms) is the
    stall injected when [Net_delay] fires.
    @raise Invalid_argument if any rate is outside [0,1]. *)

val install : plan -> unit
(** Park the plan in its engine's fault-plan slot, arming every
    injection site run by that engine. *)

val uninstall : Sim.Engine.t -> unit

val current : unit -> plan option
(** The plan of the currently-running engine, if one is installed. *)

val rate : plan -> site -> float

val set_rate : plan -> site -> float -> unit
(** Retune one site mid-run (e.g. force [Uc_kill] for exactly one
    invocation in a regression test). *)

val fire : site -> detail:string -> bool
(** [fire site ~detail] decides whether the fault fires here: [false]
    (without drawing) when no plan is installed or the site's rate is 0;
    otherwise one draw from the plan's stream, recorded in {!history}
    when it fires. [detail] labels the record. *)

val delay : unit -> float
(** Extra send stall: the plan's [delay_spike] when [Net_delay] fires,
    [0.0] otherwise. *)

val pick : plan -> int -> int
(** Deterministic victim choice in [\[0, n)] from the plan's stream. *)

val jitter : plan -> float
(** Uniform draw in [\[0, 1)] from the plan's stream, for jittered
    backoff/timeouts. *)

val history : plan -> record list
(** Every fired fault, oldest first — the reproducible failure
    timeline. *)

val fired : plan -> int

(** {1 Partitions}

    Pair-wise fabric cuts between cluster node ids. These are state, not
    draws: install/heal them directly or on a schedule, and let sites
    consult {!partitioned}. Cuts and heals are recorded in {!history}
    under the [Partition] site. *)

val partition : plan -> a:int -> b:int -> unit

val heal : plan -> a:int -> b:int -> unit

val schedule_partition :
  plan -> a:int -> b:int -> after:float -> duration:float -> unit
(** Cut [a]-[b] [after] seconds from now, heal [duration] later. *)

val is_partitioned : plan -> int -> int -> bool

val partitioned : int -> int -> bool
(** [is_partitioned] against the running engine's plan; [false] when no
    plan is installed. *)
