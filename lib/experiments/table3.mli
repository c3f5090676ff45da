(** Table 3 — cache density limit and 16-way parallel creation rate for
    idle Node.js runtime environments across four isolation methods:
    Firecracker microVMs, Docker containers, Linux processes, and SEUSS
    UCs.

    Density: instances are deployed sequentially until the node's memory
    budget is exhausted. Creation rate: on a fresh node, 16 workers
    create instances in parallel; the rate is instances over elapsed
    simulated time. SEUSS creations are relayed through the shim, whose
    single TCP connection is the bottleneck the paper reports (128.6/s). *)

type row = {
  name : string;
  density : int;
  rate : float;  (** instances per second, 16-way parallel *)
  per_instance_bytes : int64;
}

type result = {
  budget_bytes : int64;  (** the node memory budget every row measured *)
  firecracker : row;
  docker : row;
  process : row;
  seuss : row;
}

val run :
  ?budget_bytes:int64 ->
  ?rate_sample : int ->
  ?seed:int64 ->
  unit ->
  result
(** [budget_bytes] defaults to the paper's 88 GiB (the full-scale run
    takes a couple of minutes of host time); [rate_sample] caps the
    instances created during each rate measurement (default: the
    observed density, capped at 4000 for SEUSS whose shim-bound rate is
    constant). *)

val report : result -> Report.t
