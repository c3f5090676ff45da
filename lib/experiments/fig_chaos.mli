(** fig_chaos (extension): tail latency and availability of a DR-SEUSS
    cluster as the injected failure rate rises.

    For each rate the same workload runs on a fresh 4-node cluster with
    every fault-plane site armed (crashes much rarer than transients,
    as in production): the figure reports availability — the fraction
    of invocations served, counting degraded local cold starts as
    served — and latency percentiles, plus the recovery actions the
    cluster took. Rate 0.0 is the control arm: no plan draws, identical
    to a fault-free build. The whole sweep is deterministic per seed. *)

type point = {
  rate : float;
  invocations : int;
  served : int;
  errors : int;
  availability : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  remote_fetches : int;
  cluster_colds : int;
  fetch_retries : int;
  failovers : int;
  degraded_colds : int;
  node_crashes : int;
  registry_evictions : int;
  faults_fired : int;
}

type result = {
  nodes : int;
  functions : int;
  calls : int;
  seed : int64;
  points : point list;
  timeline : string;
      (** the highest-rate run's cluster recovery log, as JSONL *)
}

val default_rates : float list
(** [0; 0.01; 0.05; 0.1]. *)

val run :
  ?nodes:int ->
  ?functions:int ->
  ?calls:int ->
  ?rates:float list ->
  ?seed:int64 ->
  unit ->
  result
(** Defaults: 4 nodes, 25 functions, 200 calls per rate, seed 7.
    @raise Invalid_argument with no node or a rate outside [\[0, 1\]]. *)

val report : result -> Report.t
(** One row per rate; the timeline is not part of it. *)
