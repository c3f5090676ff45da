(** The structured event taxonomy of the node hot paths.

    Every event the node emits while serving traffic is one of these
    typed variants; they carry the quantities the paper's evaluation
    attributes time and memory to (§6.1's per-phase breakdowns). Events
    are engine-timestamped by {!Log} at emission; the JSON codec
    round-trips through {!Json} so exported JSONL streams can be
    re-parsed losslessly. *)

type path = Cold | Warm | Hot

val path_name : path -> string
val path_of_name : string -> path option

type t =
  | Invoke_start of { fn_id : string }
      (** An invocation entered the node. *)
  | Invoke_finish of {
      fn_id : string;
      path : path;
      queue : float;
          (** residual time not attributable to a service phase:
              OOM sweeps, core-pool waits outside the phases below *)
      deploy : float;  (** UC deploy from snapshot + TCP connect *)
      import : float;
          (** source import + compile + function-snapshot capture
              (cold path only; [0.] on warm/hot) *)
      run : float;  (** guest executes the function and replies *)
      total : float;
      ok : bool;
    }  (** The invocation left the node (queue-vs-service split). *)
  | Snapshot_capture of { name : string; pages : int; bytes : int64 }
      (** A snapshot was captured; [pages] is the dirty-page diff. *)
  | Cow_fault of { uc_id : int; pages : int }
      (** One guest write range (or single-page write) in a deployed
          UC copied [pages] shared frames on first write. (Zero-fill
          faults are counted in the metrics registry only — per-event
          they would drown the ring in boot noise.) *)
  | Uc_reclaim of { uc_id : int; fn_id : string }
      (** The OOM daemon destroyed an idle UC. *)
  | Oom_wake of { free_bytes : int64 }
      (** Free memory fell below the headroom; the daemon woke. *)
  | Fault_injected of { site : string; detail : string }
      (** The fault plane fired at an injection site
          ([site] is {!Faults.Fault.site_name}). *)
  | Invoke_retry of { fn_id : string }
      (** A hot UC died mid-request; the node retried internally on the
          warm/cold path. *)
  | Node_crash of { node_id : int }
      (** A whole cluster node died; its registry entries are evicted. *)
  | Fetch_retry of { fn_id : string; attempt : int; backoff : float }
      (** A remote snapshot fetch failed; retrying after an
          exponentially-backed-off, jittered pause. *)
  | Registry_evict of { fn_id : string; node_id : int; reason : string }
      (** A dead or stale holder entry was dropped from the registry. *)
  | Registry_repair of { node_id : int; republished : int }
      (** After a node crash, surviving holders re-published
          [republished] snapshot locations. *)
  | Failover of { fn_id : string; from_node : int; to_node : int }
      (** An invocation was re-routed away from a node that could not be
          served locally or by fetch. *)
  | Degraded_cold of { fn_id : string }
      (** Holders exist but none was reachable: the cluster degraded to
          a local cold start rather than failing the invocation. *)
  | Ws_record of { snapshot : string; pages : int }
      (** The first invocation from [snapshot] completed with working-set
          recording on; [pages] vpns were captured for future prefault. *)
  | Ws_prefault of {
      uc_id : int;
      snapshot : string;
      pages : int;  (** working-set size requested *)
      cow_copied : int;
      zero_filled : int;
    }
      (** A warm deploy batch-installed [snapshot]'s recorded working
          set into UC [uc_id] before the guest ran. Pages neither copied
          nor zero-filled were already mapped in the snapshot stack. *)
  | San_race of {
      cell : string;  (** registered shared-cell name, e.g. ["registry.table"] *)
      kind : string;  (** {!Sim.Hb.kind_name}: ["write/write"] or ["read/write"] *)
      first_pid : int;
      second_pid : int;
    }
      (** The schedule sanitizer observed two same-timestamp accesses to
          a registered shared cell with no happens-before edge between
          the owning processes. Only emitted on a checked engine
          ([SEUSS_CHECK=1] or [~check:true] at [Sim.Engine.create]). *)
  | San_deadlock of {
      resource : string;
          (** e.g. ["semaphore#3"], ["ivar#12"], or a lock-order cycle
              ["lock order semaphore#1 -> semaphore#2 -> semaphore#1"] *)
      proc : string;  (** process name at spawn — the waiter's provenance *)
      pid : int;
      spawned_at : float;  (** simulated time the waiter was spawned *)
      waiting_since : float;  (** simulated time it parked *)
      in_cycle : bool;  (** on a wait-for cycle (true deadlock), vs merely
                            stranded (lost wakeup) *)
    }
      (** The deadlock sanitizer found this process still parked when
          the simulation quiesced, so nobody can ever wake it, or found
          it taking a lock in an order that closes a cycle (the
          resource then names the cycle, [waiting_since] is when). Only
          emitted on a checked engine ([SEUSS_CHECK=1] or [~check:true]
          at [Sim.Engine.create]). *)
  | Snap_dedup of {
      snapshot : string;
      delta_pages : int;  (** pages in the snapshot's delta layer *)
      shared_pages : int;
          (** delta pages whose content matched an already-indexed page
              and were rewritten to share its frame *)
      unique_pages : int;  (** delta pages first seen at this insert *)
    }
      (** The snapshot store content-indexed a newly inserted snapshot:
          [shared_pages + unique_pages = delta_pages]. *)
  | Snap_delta of {
      snapshot : string;
      parent : string;  (** the base layer the delta is stored against *)
      delta_pages : int;
      delta_bytes : int64;
    }
      (** The snapshot store recorded a snapshot as a delta over its
          parent layer: only [delta_pages] differ from the base. *)
  | Snap_evict of {
      fn_id : string;
      pages_freed : int;
          (** content pages whose last holder this eviction dropped *)
      resident_bytes : int64;  (** store residency after the eviction *)
      policy : string;  (** {!Seuss.Config.policy_name}: "lru" | "ws" *)
    }
      (** The byte-budgeted snapshot cache evicted a function snapshot;
          its next invocation falls back to the cold path. *)
  | San_leak of {
      node : string;  (** node name, e.g. ["node0"] *)
      frames : int;  (** physical frames whose refcount exceeds what the
                         node's live tables account for *)
      snapshot_refs : int;
          (** snapshot dependent-count surplus over live importers *)
      pinned : int;  (** snapshots still pinned by an invocation window *)
      ucs : int;  (** UCs created but never destroyed nor cached *)
    }
      (** The ownership census counted resources still held at engine
          quiescence beyond the node's deliberate caches. Only emitted
          on a checked engine ([SEUSS_CHECK=1] or [~check:true] at
          [Sim.Engine.create]) {e and} at least one count is nonzero —
          a healthy armed run emits nothing, keeping its event stream
          byte-identical to an unarmed one. *)

val type_name : t -> string
(** The discriminator stored in the ["type"] JSON field. *)

val to_json : time:float -> t -> Json.t

val of_json : Json.t -> (float * t, string) result
(** Inverse of {!to_json}: recover the timestamp and event. *)
