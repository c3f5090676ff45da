(** Table 1 — SEUSS microbenchmarks.

    Top half: memory footprint of the base (Node.js + invocation driver)
    snapshot and of the NOP function snapshot, before and after AO.
    Bottom half: invocation latency and memory footprint of NOP
    JavaScript functions across the cold, warm and hot paths, averaged
    over 475 invocations each (the paper's count), measured node-side —
    no control plane or shim. *)

type result = {
  invocations : int;  (** NOP invocations per path *)
  base_no_ao_bytes : int64;
  base_ao_bytes : int64;
  fn_no_ao_bytes : int64;
  fn_ao_bytes : int64;
  cold : Stats.Summary.digest;
  warm : Stats.Summary.digest;
  hot : Stats.Summary.digest;
  cold_pages : float;  (** mean pages private to the UC after a cold run *)
  warm_pages : float;
  hot_pages : float;  (** mean pages newly copied during a hot run *)
  cold_phases : Obs.Breakdown.phase_means option;
      (** deploy/import/run/queue means from the event log *)
  warm_phases : Obs.Breakdown.phase_means option;
  hot_phases : Obs.Breakdown.phase_means option;
  cold_tails : Obs.Breakdown.tails option;
      (** per-path total-latency p50/p90/p99/p999, same provenance *)
  warm_tails : Obs.Breakdown.tails option;
  hot_tails : Obs.Breakdown.tails option;
  failed : int;
      (** calls not served on their path (see {!Harness.invoke}); the
          latency and footprint rows are means over the served ones *)
}

val run : ?invocations:int -> ?seed:int64 -> unit -> result
(** Default 475 invocations per path. *)

val render : result -> string
