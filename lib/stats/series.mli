(** Timestamped event series.

    The burst figures (6-8) are scatter plots of (send time, latency,
    outcome) per request; this module records them. *)

type point = { time : float; value : float; ok : bool }

type t

val create : unit -> t

val add : t -> time:float -> value:float -> ok:bool -> unit

val length : t -> int

val points : t -> point array
(** Copy, in insertion order. *)

val failures : t -> int
