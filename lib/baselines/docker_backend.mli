(** Docker containers with the overlay2 storage driver (Table 3 row 2).

    On top of the shared-text process model, each container adds
    filesystem layers, namespaces and per-container daemons (~8 MB
    marginal), a veth endpoint on the Linux bridge (O(population)
    broadcast processing per attachment — §7's diagnosed scalability
    bottleneck), and creation serialized through the Docker daemon:
    creation latency grows from ~541 ms on an empty node to ~1.5 s past
    1,000 containers sequentially, and to many seconds under 16-way
    parallel creation — the paper's observed 5.3 creations/s. *)

type t

val create : Seuss.Osenv.t -> Net.Bridge.t -> t

val backend : t -> Backend_intf.t

val container_private_pages : int
(** Process private pages plus container overhead. *)

val creation_base_time : float

val creation_per_container : float
(** The per-existing-container slowdown of one creation. *)

val concurrency_penalty : float
(** Fractional latency increase per additional concurrent creation
    ("creation times proportional to the number of concurrent
    creations", §7). *)

val creation_latency : t -> float
(** The latency one creation would pay right now. *)

val create_container_space : t -> Mem.Addr_space.t option
(** Full creation returning the container's address space (used by the
    Linux compute node, which manages spaces itself). *)

val create_container_raw : t -> bool
(** One container creation with all costs applied (also exposed to the
    Linux compute node, which reuses this model for Figures 4-8). *)

val destroy_container_raw : t -> Mem.Addr_space.t option -> unit
(** Deletion: docker rm + bridge detach (~300 ms daemon time). The
    caller passes the container's space to release, if it owns one. *)

val deletion_time : float
