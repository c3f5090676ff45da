(** Open-loop inter-arrival processes.

    Two families, both seed-deterministic:

    - {b Poisson}: memoryless arrivals at a constant rate — the classic
      open-loop baseline;
    - {b MMPP} (Markov-modulated Poisson process): arrivals are Poisson
      within a {e phase}, and the active phase — hence the instantaneous
      rate — changes over time. Phases cycle in order; each visit's
      dwell is either exponentially distributed around the phase's mean
      ({!bursty}: random burst onsets) or exactly the mean ({!diurnal}:
      a deterministic rate curve sampled into piecewise-constant
      phases).

    The convenience constructors preserve the requested {e mean} rate,
    so a latency-vs-offered-load sweep can swap arrival shapes without
    moving its x-axis. *)

type phase = {
  rate : float;  (** arrivals/second while this phase is active *)
  dwell : float;  (** mean (or exact) seconds per visit *)
  random_dwell : bool;
      (** exponential dwell around [dwell] (true) or exactly [dwell] *)
}

type t = Poisson of { rate : float } | Mmpp of { phases : phase array }

val poisson : rate:float -> t
(** @raise Invalid_argument unless [rate] is finite and positive. *)

val bursty : rate:float -> ?burst_ratio:float -> ?duty:float -> unit -> t
(** Two-phase MMPP with exponential dwells: a base phase and a burst
    phase whose rate is [burst_ratio] (default 8) times the base's. The
    burst phase is active [duty] (default 0.1) of the time on average,
    one base+burst cycle averaging 60 seconds; rates are scaled so the
    long-run mean equals [rate]. *)

val diurnal : rate:float -> ?period:float -> unit -> t
(** Deterministic-dwell MMPP tracing one sine cycle per [period]
    (default 14400 s = 4 simulated hours) across 24 equal slices:
    phase [i]'s rate is [rate * (1 + 0.6 * sin (2πi/24))]. The slices
    average back to [rate] exactly. *)

val mean_rate : t -> float
(** Long-run arrivals/second (phase rates weighted by mean dwell). *)

val describe : t -> string
(** ["poisson"], ["mmpp-2p"], ["mmpp-24p"], ... — stable over save/load. *)

type sim = {
  arrivals : (float * int) array;
      (** (time, index of the phase it arrived in), time-sorted *)
  dwell_time : float array;
      (** total simulated seconds spent in each phase over the horizon —
          the denominator for empirical phase-conditional rates *)
}

val simulate : t -> Sim.Prng.t -> horizon:float -> sim
(** Generate every arrival in [\[0, horizon)].
    @raise Invalid_argument if [horizon] is negative or not finite. *)

val times : t -> Sim.Prng.t -> horizon:float -> float array
(** Just the arrival instants of {!simulate}. *)

val instants : t -> Sim.Prng.t -> horizon:float -> float array * int
(** [(at, len)]: the instants of {!times} in [at.(0 .. len - 1)] of the
    loop's own buffer (its tail past [len] is unspecified), for a caller
    that reads them once without a copy. *)
