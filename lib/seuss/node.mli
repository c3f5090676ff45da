(** The SEUSS OS compute node: snapshot caches, idle-UC cache, and the
    cold / warm / hot invocation paths of §4.

    - {b cold}: no snapshot for the function — deploy from the base
      runtime snapshot, import + compile the source, capture the
      function snapshot at the compile breakpoint, then run;
    - {b warm}: deploy from the function snapshot, import arguments, run;
    - {b hot}: reuse an idle UC over its existing connection.

    With {!Config.t.prefault_working_set} on, the warm path records the
    pages demand-faulted by each function snapshot's first invocation
    and batch-installs them (REAP-style) on every later deploy from
    that snapshot, replacing the per-page fault storm with a single
    {!Cost.prefault_time} charge.

    Memory pressure is handled by the paper's "trivial" OOM daemon:
    idle UCs (never snapshots with dependents) are reclaimed, oldest
    first, whenever free memory is below the configured headroom.

    Fault plane: when a {!Faults.Fault.plan} is installed on the engine
    the node consults three injection sites — [Uc_kill] (guest dies just
    as a request is handed to it), [Capture_fail] (a function-snapshot
    capture is lost; the invocation still succeeds), and [Oom_storm]
    (an allocation spike evicts the whole idle-UC cache). All are
    no-draw no-ops when no plan is armed. *)

type t

type fn = {
  fn_id : string;  (** unique per (client, function) — the isolation unit *)
  runtime : Unikernel.Image.runtime;
  source : string;
}

type path = Cold | Warm | Hot

type invoke_error =
  [ `Compile_error of string
  | `Runtime_error of string
  | `Timeout
  | `No_runtime
  | `Overloaded ]

type stats = {
  cold : int;
  warm : int;
  hot : int;
  errors : int;
  retries : int;
      (** internal hot-death retries; these invocations stay counted
          under [hot], so [cold + warm + hot] always equals the number
          of invocations accepted *)
  reclaimed_ucs : int;
  snapshots_captured : int;
}

val create : ?config:Config.t -> Osenv.t -> t
(** A node over [env], not yet started. On an engine with the ownership
    census armed, the node registers its census (see {!leaks}) under
    ["node<k>"], [k] its creation order on that engine. *)

val config : t -> Config.t

val env : t -> Osenv.t

val start : t -> unit
(** Boot one unikernel per configured runtime, apply the configured AO
    level, and capture the base runtime snapshots. Must run inside a
    simulation process; blocks for the boot time (seconds). *)

val invoke : t -> fn -> args:string -> (string, invoke_error) result * path
(** Process one invocation to completion (blocking). The returned path
    tells the caller which case served it (the reported path is the one
    *attempted first*; a hot UC that died mid-request is retried as
    warm/cold internally). Its spans record into the calling process's
    [Sim.Trace] context, if the caller started one; export them with
    {!Traceout.chrome}. *)

val deploy_idle : t -> Unikernel.Image.runtime -> bool
(** Deploy one idle runtime UC from the base snapshot and leave it
    listening (the Table 3 density/creation-rate instance). [false] on
    out-of-memory or a missing runtime. *)

val base_snapshot : t -> Unikernel.Image.runtime -> Snapshot.t option

val function_snapshot : t -> string -> Snapshot.t option
(** Policy-neutral read of the function-snapshot cache — does not count
    a store hit/miss or touch eviction recency. *)

val snapstore : t -> Snapstore.t option
(** The content-addressed byte-budgeted snapshot store, present iff
    {!Config.t.snapshot_cache_bytes} > 0. When armed, the invocation
    paths route function-snapshot lookups through it (hit/miss counting,
    recency), captures insert into it (page dedup + delta accounting +
    budget eviction), and {!shutdown} drains it. Unarmed, every path is
    byte-identical to a build without the store. *)

val install_snapshot : t -> fn_id:string -> Snapshot.t -> unit
(** Adopt an externally-produced snapshot (e.g. fetched from a remote
    node by the DR-SEUSS layer) into the function-snapshot cache. If the
    function already has one, the new snapshot is discarded (deleted if
    nothing depends on it). *)

val snapshot_count : t -> int
(** Function snapshots currently cached. *)

val snapshot_inventory : t -> (string * Snapshot.t) list
(** The cached function snapshots with their ids (insertion order not
    guaranteed); bases via {!base_snapshot}. For inspection tools. *)

val idle_uc_count : t -> int

val idle_ucs : t -> Uc.t list

val free_bytes : t -> int64

val stats : t -> stats

val in_flight : t -> int
(** Invocations currently inside {!invoke} — the sampler's in-flight
    gauge. *)

val last_served_uc : t -> Uc.t option
(** The UC that served the most recent invocation — instrumentation for
    the Table 1 memory-footprint microbenchmark (pages copied per
    invocation type). *)

(** {1 Ownership census}

    Checks that every acquire was released, against the runtime
    ground truth at engine quiescence: live frames, snapshot dependent
    counts, open pin windows and the UC create/destroy ledger. Armed
    with [~own:true] at [Sim.Engine.create], where every node {!create}
    builds registers its census; unarmed, nothing is registered and
    every output is byte-identical. *)

type census = {
  leaked_frames : int;
      (** allocator frames live beyond what the node's known tables
          (base + function snapshots, held UC address spaces) imply *)
  snapshot_ref_mismatch : int;
      (** sum over known snapshots of (dependents − accounted
          dependents), accounted = held UCs deployed from it + child
          snapshots *)
  pinned_windows : int;  (** warm-invocation pin windows still open *)
  leaked_ucs : int;
      (** UCs created but neither destroyed nor held in a node cache,
          plus released UCs whose guest process has not ended *)
}

val census : t -> census
(** Count resources held right now beyond the node's deliberate caches.
    All-zero at quiescence on a leak-free node; meaningful only when no
    invocation is in flight. *)

val census_clean : census -> bool

val leaks : Sim.Engine.t -> (string * census) list
(** The nonzero censuses of the engine's nodes at quiescence, in
    registration order, each under its node's name; each also emitted
    an [Obs.Event.San_leak] on its node's log. [[]] on an unarmed
    engine, before quiescence and on a leak-free run. *)

val drop_idle : t -> fn_id:string -> unit
(** Evict the idle UCs of one function (used by experiments to force
    warm paths). *)

val reclaim_idle_ucs : t -> int
(** Force the OOM daemon's sweep: destroy idle UCs (oldest first) until
    free memory exceeds the headroom; returns the number reclaimed. *)

val shutdown : t -> unit
(** Orderly teardown: destroy every idle UC (and the last-served one),
    then delete all function snapshots and base snapshots. Afterwards
    the node holds no frame references — with no other allocator users,
    [Mem.Frame.used_frames] returns to zero. Must run inside a
    simulation process (deletions charge {!Cost.destroy}). *)
