(** Zipf(α) function-popularity model.

    Production FaaS traces are dominated by a small set of hot functions
    with a long cold tail (the vHive/Azure trace characterization): rank
    [r]'s invocation probability is proportional to [1/(r+1)^α]. [α = 0]
    degenerates to uniform; larger [α] concentrates load on the head.
    A sample draws exactly one [Sim.Prng.float], so traces are
    seed-deterministic, and returns the first rank whose cumulative
    weight exceeds it. It starts at a cutpoint table of [n + 1] entries
    built with the CDF (Chen & Asau, 1974) and walks forward about one
    step on average, so its cost does not grow with [n]; it allocates
    nothing of its own. *)

type t

val create : alpha:float -> n:int -> t
(** [create ~alpha ~n] is a popularity model over function ranks
    [0 .. n-1].
    @raise Invalid_argument if [n < 1] or [alpha] is negative or not
    finite. *)

val n : t -> int

val alpha : t -> float

val weight : t -> int -> float
(** [weight t r] is the normalized probability of rank [r].
    @raise Invalid_argument if [r] is out of range. *)

val sample : t -> Sim.Prng.t -> int
(** One rank draw (one PRNG float): the first rank whose cumulative
    weight exceeds the draw, or [n - 1] if none does. *)
