(** The resource timeline sampler: a periodic engine-driven daemon that
    snapshots node gauges into the event log as
    [Obs.Event.Timeline_sample] records.

    Off by default; armed explicitly with {!start} (the experiment
    harness does so for every node it builds when the run configuration
    asks for a timeline). The sampler is a [daemon] process that
    emits one sample per period and {e terminates itself} when the
    engine's pending-event count reaches zero — so it never prevents
    natural quiescence, schedules nothing beyond its own wakeups, and
    draws nothing from the PRNG. Sampling an armed run therefore leaves
    every experiment output byte-identical to a plain run except for
    the extra [timeline_sample] records in the event log. *)

val default_period : float
(** 0.1 simulated seconds. *)

val start : ?period:float -> Node.t -> unit
(** Spawn the sampler daemon on the node's engine. Call before (or
    during) the run; the first sample lands one period in.
    @raise Invalid_argument if [period] is not finite and positive. *)

(** {1 Reading timelines back} *)

type sample = {
  time : float;
  run_queue : int;
  in_flight : int;
  free_bytes : int64;
  idle_ucs : int;
  cached_snapshots : int;
  stuck_waiters : int;
}

val samples_of_records : Obs.Log.record list -> sample list
(** The [Timeline_sample] records of a log, in emission order. *)

val render : sample list -> string
(** ASCII rendering via [Stats.Asciiplot]: a load canvas (run queue,
    in-flight, idle UCs, snapshots) and a free-memory canvas, plus a
    stuck-waiter summary line. *)
