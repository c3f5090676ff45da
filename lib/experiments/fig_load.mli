(** fig_load (extension): open-loop tail latency vs offered load.

    The closed-loop figures (4, 5) let a saturated backend slow its
    clients down; this sweep does not. For each offered rate a Zipf-
    popularity trace is synthesized over a synthetic MiniJS corpus
    ({!Workload.Trace}) and replayed open-loop ({!Harness.replay}) —
    arrivals fire on schedule no matter how deep the backlog gets —
    through the same OpenWhisk control plane against four backends:
    SEUSS (with the run's node overrides, {!Harness.armed_config}), the
    Linux container node, and warm-instance caches over the Firecracker
    and process backends. The figure reports client-observed latency
    percentiles per arm (plus the event-log breakdown tails and the
    cold/warm/hot serving mix), the open-loop backlog depth, and — on
    the SEUSS arm at the highest offered load — the node's resource
    timeline. Every arm of every point runs in a fresh simulation from
    the same run seed, so the whole sweep is deterministic. *)

type arm = {
  backend : string;
  invocations : int;
  ok : int;
  errors : int;
  mean_ms : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  p999_ms : float;
  bd_p99_ms : float;
      (** [Obs.Breakdown] histogram tails (SEUSS arm only; 0 elsewhere) *)
  bd_p999_ms : float;
  achieved_rps : float;
  max_in_flight : int;
  mix : Harness.mix;
}

type point = { offered_rps : float; trace_events : int; arms : arm list }

type result = {
  functions : int;
  alpha : float;
  arrival : string;
  horizon : float;
  seed : int64;
  points : point list;
  timeline : string;
      (** resource timeline of the highest-load SEUSS arm, rendered *)
}

val arrival_names : string list
(** ["poisson"; "bursty"; "diurnal"]. *)

val arrival_of_name : string -> rate:float -> Workload.Arrival.t
(** @raise Invalid_argument on a name not in {!arrival_names}. *)

val default_hours : float
val default_functions : int
val default_alpha : float
val default_arrival : string
val default_rps : float list

val run :
  ?functions:int ->
  ?alpha:float ->
  ?arrival:string ->
  ?hours:float ->
  ?rps:float list ->
  ?seed:int64 ->
  unit ->
  result
(** One point per offered rate in [rps], each replaying its own
    synthesized trace against every backend. Seed 11 by default.
    @raise Invalid_argument on an empty or non-positive shape. *)

val run_trace : ?seed:int64 -> Workload.Trace.t -> result
(** Replay an externally supplied trace (e.g. loaded from JSONL) as a
    single sweep point against every backend, without a timeline. *)

val report : result -> Report.t
(** One text row and one CSV record per (offered rate, backend); the
    JSON nests each point's arms under it. *)
