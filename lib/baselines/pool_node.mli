(** Invocation service over the Table 3 instance backends.

    {!Firecracker_backend} and {!Process_backend} model instance
    {e creation} (latency, serialization, memory); this node adds the
    minimal serving loop the open-loop load experiments need on top of
    either: a per-function warm-instance cache with LRU eviction, a
    creation path that charges the backend's full cost, and an import
    step that loads the function's code into a fresh instance. It is
    deliberately simpler than {!Linux_node} (no bridge, no stemcells):
    these baselines exist to place microVM- and process-grade cold
    starts on the latency-vs-load curves, not to re-model OpenWhisk.

    An invocation is served warm when an idle instance already holds the
    function; otherwise one is created (evicting the LRU idle instance
    when at capacity or out of memory), the code is imported, and the
    action runs. Creation failures with nothing left to evict surface as
    [`Overloaded]. *)

type kind = Firecracker | Process

type config = {
  cache_limit : int;  (** instances, busy + idle, before LRU eviction *)
}

val default_config : config
(** Limit 1024 — memory binds first for microVMs (~450 in 88 GB). Every
    instance pays 55 ms to import function code and 1.2 ms of handling
    per request (the OpenWhisk operating point). *)

type stats = {
  creates : int;
  warm_hits : int;
  evictions : int;
  errors : int;
}

type t

val create : ?config:config -> kind:kind -> Seuss.Osenv.t -> t

val kind : t -> kind

val invoke :
  t -> fn_id:string -> action:Backend_intf.action -> (unit, [ `Overloaded ]) result
(** Serve one invocation to completion (blocking). *)

val instance_count : t -> int

val idle_count : t -> int

val stats : t -> stats
