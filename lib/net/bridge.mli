(** The Linux veth/bridge bottleneck model.

    §7 ("Linux Container Limit") diagnoses the Linux node's failures: a
    broadcast packet on a bridge with N endpoints is processed by the
    kernel N separate times, so endpoint churn (container creation) costs
    O(N) serialized kernel work, and beyond ~1024 endpoints SYNs drop and
    controller-to-container connections time out. This module reproduces
    those two behaviours as an explicit queueing model:

    - {!add_endpoint} serializes an O(endpoints) broadcast storm on the
      bridge's kernel thread;
    - {!connect} is refused with a probability that grows with endpoint
      count and with concurrent connection attempts; refused SYNs retry
      on {!Tcp.syn_timeout} and ultimately fail, surfacing as the 'x'
      marks in Figures 6-8. *)

type config = {
  safe_endpoints : int;
      (** the default Linux bridge port limit, 1024 *)
  broadcast_cost : float;
      (** kernel time per endpoint traversal per broadcast (seconds) *)
  drop_base : float;
      (** drop probability scale; see [drop_probability] *)
}

val default_config : config

type t

val create : ?config:config -> rng:Sim.Prng.t -> unit -> t

val config : t -> config

val add_endpoint : t -> unit
(** Attach a veth endpoint (a container). Sleeps the serialized
    broadcast-processing time — this is why container creation latency
    grows with the container population. *)

val remove_endpoint : t -> unit

val connect : t -> Tcp.listener -> Tcp.conn option
(** Connect across the bridge; [None] after exhausting SYN retries. *)

val drop_probability : t -> float
(** Current per-SYN drop probability:
    [drop_base * (endpoints/safe)^2 * (1 + concurrent_attempts/8)],
    clamped to \[0, 0.9\]. *)

val dropped_syns : t -> int

val failed_connects : t -> int
