(** fig_evict (extension): snapshot-store hit rate and tail latency vs
    cache budget.

    One Zipf-popularity trace ({!Workload.Trace}) is replayed open-loop
    ({!Harness.replay}) against a ladder of SEUSS nodes that differ only
    in [Config.snapshot_cache_bytes]: a disarmed baseline (the
    pre-store node, label "off"), several byte budgets small enough
    that the content-addressed store must evict under the configured
    policy, and an effectively unbounded budget that shows pure dedup
    with no eviction pressure. The idle-UC cache is off so every repeat
    invocation redeploys from its function snapshot — a store miss is a
    full cold compile, which is exactly the cliff the sweep measures.
    Per arm the figure reports the store hit rate, dedup ratio,
    resident and peak bytes, eviction count, and client-observed
    latency percentiles; the curves plot hit rate and p99 against the
    budget.

    Arms replay with their exact ladder config, never the run's node
    overrides, so an armed [SEUSS_SNAP_CACHE] cannot collapse the
    ladder to a single budget. Every arm runs in a fresh simulation
    from the same run seed, so the whole sweep is deterministic. *)

type arm = {
  label : string;  (** ["off"] or the budget, e.g. ["4m"] *)
  cache_bytes : int64;  (** 0 = store disarmed (baseline) *)
  invocations : int;
  ok : int;
  errors : int;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  hit_rate : float;
      (** armed: store hits / lookups; off: warm / (warm + cold), the
          same quantity measured at the node since every lookup miss is
          served cold *)
  hits : int;
  misses : int;
  evictions : int;
  dedup_ratio : float;  (** 1.0 when the store is off *)
  resident_bytes : int64;
  peak_bytes : int64;
  members : int;
  index_pages : int;
  mix : Harness.mix;
}

type result = {
  functions : int;
  alpha : float;
  rate : float;
  horizon : float;
  policy : Seuss.Config.snap_policy;
  seed : int64;
  trace_events : int;
  arms : arm list;
}

val default_functions : int
val default_alpha : float
val default_rate : float
val default_hours : float
val default_policy : Seuss.Config.snap_policy

val default_sizes : int64 list
(** Off, 3, 4, 6 and 8 MiB, and 1 GiB: the finite rungs bracket the
    store's natural footprint for the default corpus. *)

val run :
  ?functions:int ->
  ?alpha:float ->
  ?rate:float ->
  ?hours:float ->
  ?sizes:int64 list ->
  ?policy:Seuss.Config.snap_policy ->
  ?seed:int64 ->
  unit ->
  result
(** One arm per budget in [sizes] (0 = disarmed), all replaying one
    Poisson trace. Seed 13 by default.
    @raise Invalid_argument on an empty or negative shape. *)

val report : result -> Report.t
(** One row per arm. *)
