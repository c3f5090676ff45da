(** Figure 4 — OpenWhisk platform throughput vs. unique-function set
    size, SEUSS node vs. Linux node.

    Each trial doubles the set size M (paper: 64 … 65536); 32 client
    threads send a continuous stream of NOP invocations; throughput is
    measured after a warmup prefix. Every invocation is "logically
    unique" (distinct function id, same NOP body). Each trial runs on a
    fresh platform deployment. The stemcell cache is disabled on Linux
    (as in the paper's throughput runs) and its container cache is
    limited to 1024. *)

type point = {
  set_size : int;
  throughput : float;  (** successful requests/s *)
  errors : int;
  mean_latency : float;
  breakdown : Obs.Breakdown.phase_means option;
      (** node-side deploy/import/run/queue means derived from the
          structured event log; [None] for the Linux baseline *)
  tails : Obs.Breakdown.tails option;
      (** node-side total-latency p50/p90/p99/p999, same provenance *)
}

type result = { seuss : point list; linux : point list }

val default_set_sizes : int list
(** 64 … 16384 (the full 65536 is available via [~set_sizes]; see
    DESIGN.md's scaling note). *)

val run :
  ?set_sizes:int list ->
  ?client_threads:int ->
  ?seed:int64 ->
  unit ->
  result

val report : result -> Report.t
(** Comparison table plus an ASCII plot of both throughput curves. The
    data (JSON/CSV) adds each trial's error counts and the SEUSS
    p50/p90 tails (ms). *)
