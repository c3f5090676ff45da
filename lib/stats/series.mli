(** Timestamped event series.

    The burst figures (6-8) are scatter plots of (send time, latency,
    outcome) per request; this module records them and provides
    time-window aggregation for throughput-over-time views. *)

type point = { time : float; value : float; ok : bool }

type t

val create : unit -> t

val add : t -> time:float -> value:float -> ok:bool -> unit

val length : t -> int

val points : t -> point array
(** Copy, in insertion order. *)

val failures : t -> int

val window_counts : t -> width:float -> (float * int) list
(** [(window_start, events_in_window)] covering the series span. Empty
    list when the series is empty. *)
