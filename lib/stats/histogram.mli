(** Fixed-layout log-binned histograms.

    Latencies in the burst experiments span four orders of magnitude
    (sub-ms hot starts to 60 s container cold starts); a logarithmic
    histogram summarises them compactly without retaining every sample.

    Two histograms with the same layout ([lo], [bins_per_decade],
    [bin_count]) are mergeable, so per-node distributions can be folded
    into cluster-wide ones without resampling. *)

type t

val create : ?lo:float -> ?hi:float -> ?bins_per_decade:int -> unit -> t
(** Default layout: [lo = 1e-4] s, [hi = 1e3] s, 10 bins per decade.
    Samples outside the range clamp to the edge bins. *)

val add : t -> float -> unit

val count : t -> int

val bin_count : t -> int

val bin_bounds : t -> int -> float * float
(** Lower/upper bound of a bin index. *)

val bin_value : t -> int -> int
(** Number of samples in a bin. *)

val merge : t -> from:t -> unit
(** Add every count of [from] into the first histogram.
    @raise Invalid_argument when the layouts differ. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0,1]: the upper bound of the bin holding
    the q-th sample ([0.] when empty). The relative error is bounded by
    one bin width, [10^(1/bins_per_decade) - 1]. *)

val fold : t -> init:'a -> f:('a -> lo:float -> hi:float -> count:int -> 'a) -> 'a
