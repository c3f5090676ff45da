(** The Linux/Docker compute node behind OpenWhisk (the comparison
    system of Figures 4-8).

    Containers are the unit of isolation and caching: a warm container
    is bound to one function and serves one invocation at a time; a
    *stemcell* is a pre-created Node.js container awaiting code. The
    node enforces the paper's operating points: a 1,024-container cache
    limit (the Linux bridge endpoint default — beyond it connections
    drop), pausing disabled, stemcells off for the throughput runs and
    set to 256 for the burst runs.

    Failure modes reproduced from §7: container creation slows with
    population and concurrency; a saturated cache forces
    evict-then-create cycles; bridge SYN drops surface as request
    errors; and when no capacity frees up within the timeout the request
    errors out. *)

type config = { container_cache_limit : int; stemcell_count : int }

val default_config : config
(** Limit 1024, no stemcells. Every request times out after 60 s,
    waiting for capacity in 0.1 s steps; every container pays 55 ms of
    /init (importing function code into Node.js) and 1.2 ms of
    invocation-server handling per request. *)

type fn = { fn_id : string; action : Backend_intf.action }

type invoke_error = [ `Timeout | `Connection_failed | `Overloaded ]

type path = Create | Stemcell | Warm_container

type stats = {
  creates : int;
  stemcell_hits : int;
  warm_hits : int;
  evictions : int;
  errors : int;
}

type t

val create : ?config:config -> Seuss.Osenv.t -> t
(** Uses the env's frame allocator and core pool; builds its own bridge. *)

val config : t -> config

val start : t -> unit
(** Pre-create the configured stemcells (blocking; call in-process). *)

val invoke : t -> fn -> (unit, invoke_error) result * path
(** Serve one invocation end to end. *)

val container_count : t -> int

val stats : t -> stats
