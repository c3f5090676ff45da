(** Design-choice ablations called out in DESIGN.md (not in the paper's
    evaluation, but each isolates one mechanism the paper credits):

    - {b snapshot stacks off}: no function-specific snapshots, so every
      cache miss replays import+compile against the base snapshot;
    - {b hot cache off}: no idle-UC reuse, every repeat is a warm
      deploy;
    - {b shim bypass}: node-direct invocation, quantifying the hop the
      paper blames for losing 21% to Linux on hot paths;
    - {b specialized unikernel}: the §6-footnote alternative — a trimmed
      single-interpreter image. Boot and base-snapshot size shrink, but
      cold/warm paths are unchanged because snapshots already amortize
      the boot: the data behind the paper's "unintuitive" choice of a
      general-purpose unikernel. *)

type result = {
  warm_with_stacks_ms : float;
  miss_without_stacks_ms : float;  (** repeat-miss latency without fn snapshots *)
  hot_with_cache_ms : float;
  repeat_without_cache_ms : float;
  hot_direct_ms : float;
  hot_via_shim_ms : float;
  general_boot_s : float;  (** node start time, general-purpose image *)
  specialized_boot_s : float;
  general_base_mb : float;
  specialized_base_mb : float;
  general_cold_ms : float;
  specialized_cold_ms : float;
  failed : int;
      (** calls not served on their path, over every measurement (see
          {!Harness.invoke}); each value is over the served calls *)
}

val run : ?invocations:int -> ?seed:int64 -> unit -> result

val render : result -> string
