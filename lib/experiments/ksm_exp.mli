(** Ablation: retroactive page dedup (KSM) vs snapshot stacks.

    §5 contrasts SEUSS's proactive, capture-time sharing with KSM's
    retroactive scanning (and its deduplication side channel). This
    experiment measures how far a generous `ksmd` closes the density gap
    for idle Node.js processes, and what it costs: scanning CPU and the
    lag before a new instance's pages are actually merged. *)

type result = {
  budget_bytes : int64;
  process_density : int;
  process_ksm_density : int;
  seuss_density : int;
  merged_pages : int;
  scan_cpu_seconds : float;  (** total core time the daemon burned *)
  merge_lag_seconds : float;
      (** time for one fresh instance's dedupable pages to merge *)
}

val run : ?budget_mib:int -> ?seed:int64 -> unit -> result

val report : result -> Report.t
