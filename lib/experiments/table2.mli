(** Table 2 — latency improvements across AO levels.

    Cold and warm NOP start latency under: no AO, network AO, and
    network + interpreter AO. Fresh node per cell (the base snapshot is
    captured under that AO level). *)

type cell = { cold_ms : float; warm_ms : float }

type result = {
  no_ao : cell;
  network_ao : cell;
  full_ao : cell;
  failed : int;
      (** calls not served on their path, over all three cells (see
          {!Harness.invoke}); the means exclude them *)
}

val run : ?invocations:int -> ?seed:int64 -> unit -> result
(** Default 50 invocations per cell (means are tight: the simulation is
    deterministic up to scheduling). *)

val report : result -> Report.t
