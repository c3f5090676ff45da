(** Shared machinery of one SEUSS OS instance: the simulation engine,
    the physical frame allocator, the per-core network proxy, the core
    pool, name resolution for guest-initiated outbound traffic — and the
    node's telemetry (one structured event log and one metrics registry
    per OS instance, shared by every layer running on it). *)

type t = {
  engine : Sim.Engine.t;
  frames : Mem.Frame.t;
  proxy : Net.Proxy.t;
  cpu : Sim.Semaphore.t;
  rng : Sim.Prng.t;
  mutable next_port : int;
  mutable next_id : int;
  hosts : (string, Net.Tcp.listener) Hashtbl.t;
  hosts_cell : Sim.Hb.cell;
      (** sanitizer-registered shared cell covering [hosts] *)
  log : Obs.Log.t;  (** engine-timestamped structured event log *)
  metrics : Obs.Metrics.t;  (** the node's metrics registry *)
  mutable ucs_created : int;
      (** ownership-census ledger: UCs booted on this OS instance *)
  mutable ucs_released : int;  (** UCs whose [Uc.destroy] released *)
  mutable orphan_guests : int;
      (** guest processes of released UCs that have not ended yet *)
  mutable pins : int;  (** snapshot pin windows currently open *)
}

val default_cores : int
(** Cores of every modeled compute node: the paper's VM has 16. *)

val create : ?budget_bytes:int64 -> Sim.Engine.t -> t
(** Defaults: the paper's 88 GB VM with {!default_cores} cores, event
    ring of {!Obs.Log.default_capacity}. *)

val create_log : Sim.Engine.t -> Obs.Log.t
(** An event log stamped with the engine's simulated time. The clock
    reads it inside an atomic section ({!Sim.Engine.atomic}),
    since it runs in the middle of every emit. *)

val emit : t -> Obs.Event.t -> unit
(** Emit onto the node's event log (zero simulated-time cost). *)

val burn : t -> float -> unit
(** Occupy one core for the given CPU time (queues when all cores are
    busy). IO waits must NOT go through this. *)

val fresh_port : t -> int

val fresh_id : t -> int

val register_host : t -> string -> Net.Tcp.listener -> unit
(** Bind a URL prefix (e.g. ["http://io-server"]) for guest outbound
    connections. *)

val resolve : t -> string -> Net.Tcp.listener option
(** Longest registered prefix wins. *)

val outbound : t -> string -> Net.Tcp.conn option
(** Resolve + connect through the proxy (the guest's [net_outbound]). *)

(** {1 Ownership-census ledgers}

    Bump-only bookkeeping read by [Node.census] at engine quiescence.
    Maintained unconditionally (an int increment, no allocation) so
    arming the census ([SEUSS_CHECK]) changes observation, never
    behaviour. *)

val note_uc_created : t -> unit
val note_uc_released : t -> unit

val note_orphan_started : t -> unit
(** A UC was released while its guest process had not ended. *)

val note_orphan_ended : t -> unit
(** ... and that guest process has now ended. *)

val note_pin : t -> unit
(** A warm invocation opened its snapshot pin window. *)

val note_unpin : t -> unit
(** ... and closed it ([pins] returns to zero when balanced). *)
