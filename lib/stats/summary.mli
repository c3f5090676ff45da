(** Latency/throughput summaries.

    Collects raw samples and reports the statistics the paper plots:
    mean and the 1st/25th/50th/75th/99th percentiles (Figure 5), plus
    min/max/stddev for the microbenchmark tables. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0.0 when empty. *)

val stddev : t -> float

val min_value : t -> float
(** @raise Invalid_argument when empty. *)

val max_value : t -> float
(** @raise Invalid_argument when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0,100\]], by linear interpolation
    between closest ranks. @raise Invalid_argument when empty or [p] out
    of range. *)

val total : t -> float
(** Sum of all samples. *)

val samples : t -> float array
(** A copy of the raw samples, in insertion order. *)

type digest = {
  n : int;
  mean : float;
  p01 : float;
  p25 : float;
  p50 : float;
  p75 : float;
  p99 : float;
  min : float;
  max : float;
}

val digest : t -> digest
(** The paper's Figure 5 statistic set. @raise Invalid_argument when
    empty. *)
