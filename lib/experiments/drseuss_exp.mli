(** Extension experiment (paper §9, future work): the distributed &
    replicated snapshot cache.

    A workload of unique functions arrives at an N-node cluster. With
    the global registry enabled, a function compiled anywhere is fetched
    (diff-only, over 10 GbE) by every other node that later needs it;
    disabled, every node pays its own full cold start. Measures
    mean miss latency, the fraction of misses served by fetch, and the
    bytes moved. *)

type result = {
  nodes : int;
  functions : int;
  with_registry_mean_miss : float;  (** seconds *)
  without_registry_mean_miss : float;
  remote_fetches : int;
  cluster_colds : int;
  bytes_transferred : int64;
  failed : int;
      (** calls that failed or were not a miss, over both variants (see
          {!Harness.invoke}); the miss means exclude them *)
}

val run : ?nodes:int -> ?functions:int -> ?seed:int64 -> unit -> result

val report : result -> Report.t
