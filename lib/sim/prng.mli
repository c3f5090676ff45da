(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic choice in the simulator draws from an explicit [Prng.t]
    so that experiment runs are exactly reproducible from a seed — the
    paper's benchmark likewise pre-computes and persists its random send
    order "for repeatability".

    The state is kept unboxed, so a draw allocates nothing of its own.
    A draw returning an [int64] or a [float] to another compilation unit
    boxes that result where the build compiles units opaquely (dune's
    dev profile); elsewhere [next] and [float] inline into their callers
    and allocate nothing at all. {!bits53} returns an immediate, so it
    allocates nothing in either build. *)

type t

val create : int64 -> t
(** [create seed] is a fresh generator; equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. *)

val next : t -> int64
(** Next raw 64-bit output. *)

val bits53 : t -> int
(** The top 53 bits of {!next}, in [\[0, 2^53)]. *)

val float : t -> float
(** Uniform draw in [\[0, 1)]: exactly [Float.of_int (bits53 t) *. 0x1p-53],
    which a caller in another unit can write out to get the draw
    unboxed. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
