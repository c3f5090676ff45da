(** DR-SEUSS: a multi-node SEUSS deployment with a distributed,
    replicated snapshot cache (the paper's §9 vision).

    Each compute node runs its own SEUSS OS over its own memory budget;
    a global {!Registry} tracks which node holds which function
    snapshot. Invocations are routed to the least-loaded node. On a
    local snapshot miss, the node first tries a *remote fetch*: pull the
    function diff from a holder over the 10 GbE fabric and stack it on
    the local base runtime snapshot ({!Seuss.Snapshot.import}) — a few
    milliseconds for a typical 2 MB diff, versus replaying the full
    import+compile cold path. Only a cluster-wide miss pays a true cold
    start, and the resulting snapshot is published for everyone.

    {b Resilience.} The cluster tolerates the failures the fault plane
    ({!Faults.Fault}) injects, and every recovery decision is emitted as
    a typed {!Obs.Event} on the cluster {!log}:

    - a crashed node ({!crash_node}, or the [Node_crash] site) is routed
      around ([Failover]); its registry entries are evicted
      ([Registry_evict]) and survivors re-publish replacement locations
      ([Registry_repair]);
    - a failed or stale remote fetch is retried with exponential backoff
      and a jittered pause ([Fetch_retry]), trying other holders;
    - when holders exist but none is reachable (crashed, stale or out of
      retries), the invocation degrades to a local cold start
      ([Degraded_cold]) rather than failing.

    With no fault plan installed none of this machinery draws, sleeps,
    or emits: behaviour is identical to a fault-free build. *)

type t

type source = Local of Seuss.Node.path | Remote_fetch | Cluster_cold

type stats = {
  local_invocations : int;
  remote_fetches : int;
  cluster_colds : int;
  bytes_transferred : int64;
  fetch_retries : int;  (** backed-off fetch re-attempts *)
  failovers : int;  (** invocations re-routed off dead nodes *)
  degraded_colds : int;  (** holders existed but none reachable *)
  node_crashes : int;
  registry_evictions : int;  (** dead/stale holder entries dropped *)
}

val create :
  ?nodes:int ->
  ?budget_per_node:int64 ->
  ?config:Seuss.Config.t ->
  Sim.Engine.t ->
  t
(** Start an [n]-node cluster (default 4 nodes, 16 GiB each — call
    inside a simulation process; boots every node). *)

val nodes : t -> Seuss.Node.t list

val registry : t -> Registry.t

val log : t -> Obs.Log.t
(** The cluster's failure/recovery timeline: crash, eviction, repair,
    retry, failover, degradation events, engine-timestamped. *)

val is_alive : t -> int -> bool

val alive_count : t -> int

val crash_node : t -> int -> unit
(** Kill node [id]: it stops receiving routes, its registry entries are
    evicted, and surviving holders re-publish orphaned functions.
    Idempotent on an already-dead node.
    @raise Invalid_argument if [id] is out of range. *)

val invoke :
  t -> Seuss.Node.fn -> args:string -> (string, Seuss.Node.invoke_error) result * source
(** Route one invocation: least-loaded live node; remote fetch (with
    retry) on local miss when some other node holds the snapshot.
    [Error `Overloaded] with [Cluster_cold] only when no node is alive. *)

val invoke_unregistered :
  t -> Seuss.Node.fn -> args:string -> (string, Seuss.Node.invoke_error) result * source
(** Same routing, but without consulting or feeding the registry: every
    per-node miss is a full cold start. The control arm of the DR-SEUSS
    experiment. *)

val stats : t -> stats

val transfer_time : Seuss.Snapshot.t -> float
(** Modeled fetch time for a snapshot diff over the LAN. *)
