(** The resource timeline sampler: a periodic engine-driven daemon that
    snapshots node gauges into its own sample list.

    Off unless a caller runs {!start}: [seussctl timeline] and the top
    SEUSS arm of [fig_load], which render what it returns. The sampler
    is a [daemon] process that records one sample per period and
    {e terminates itself} when the engine's pending-event count reaches
    zero — so it never prevents natural quiescence, schedules nothing
    beyond its own wakeups, emits nothing to the event log and draws
    nothing from the PRNG. A sampled run is byte-identical to a plain
    one apart from what its caller renders. *)

type sample = {
  time : float;
  run_queue : int;  (** events pending in the engine heap *)
  in_flight : int;  (** invocations currently inside the node *)
  free_bytes : int64;
  idle_ucs : int;
  cached_snapshots : int;  (** function snapshots cached *)
  stuck_waiters : int;  (** non-daemon processes parked right now *)
}

val default_period : float
(** 0.1 simulated seconds. *)

val start : ?period:float -> Node.t -> unit -> sample list
(** Spawn the sampler daemon on the node's engine and return its
    reader: every sample so far, in time order. Call before (or during)
    the run; the first sample lands one period in. One sampler per
    engine: two keep each other alive and the run never quiesces.
    @raise Invalid_argument if [period] is not finite and positive. *)

val render : sample list -> string
(** ASCII rendering via [Stats.Asciiplot]: a load canvas (run queue,
    in-flight, idle UCs, snapshots) and a free-memory canvas, plus a
    stuck-waiter summary line. *)
