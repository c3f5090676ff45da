(** fig_reap (extension): REAP-style working-set prefault on the warm
    path (Ustiugov et al., ASPLOS '21, applied to SEUSS snapshot
    deploys).

    Two arms run the same workload on a fresh node from the same seed:
    prefault off (every warm deploy demand-faults its pages one trap at
    a time) and prefault on (the first warm invocation per function
    records its faulted vpns; every later deploy batch-installs them).
    The idle-UC cache is disabled so every repeat takes the warm path.
    Each arm's node is built from its exact config, never the run's
    node overrides. Per arm the figure reports warm latency,
    demand-fault counts, prefault batch sizes, and the per-invocation
    fault-handling core time; the headline number is the on-vs-off
    reduction of that fault-handling time. The first warm round (the
    recording round) is excluded from measurement in both arms so the
    arms stay comparable. *)

type arm = {
  prefault : bool;
  warm_invocations : int;
  mean_ms : float;
  p99_ms : float;
  p999_ms : float;
  cow_faults : int;
  zero_fills : int;
  prefault_batches : int;
  prefault_pages : int;
  prefault_cow : int;
  prefault_zero : int;
  fault_us : float;
      (** per-warm-invocation fault-handling core time, microseconds:
          demand faults at full (trap-inclusive) cost plus the batched
          prefault charge *)
  failed : int;  (** calls not served on their path ({!Harness.invoke}) *)
}

type result = {
  functions : int;
  rounds : int;
  seed : int64;
  off : arm;
  on_ : arm;
  reduction_pct : float;
}

val run : ?functions:int -> ?rounds:int -> ?seed:int64 -> unit -> result
(** Defaults: 8 functions, 20 rounds, seed 7.
    @raise Invalid_argument with no function or no round. *)

val report : result -> Report.t
(** One row per arm, named [off] and [on] in the JSON. *)
