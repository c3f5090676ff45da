(** Figures 6-8 — platform resiliency to request bursts.

    A background stream of IO-bound functions (128 threads, 16 functions
    blocking 250 ms on an external HTTP server, throttled to 72 req/s)
    runs continuously; bursts of one fresh CPU-bound function (~150 ms)
    arrive every 32 s (Fig. 6), 16 s (Fig. 7) or 8 s (Fig. 8). On Linux
    the stemcell cache is set to 256 (the paper re-enables it for this
    experiment). The result is the figures' scatter data: every request
    as (send time, latency, failed?). *)

type side = {
  background : Stats.Series.t;
  bursts : Stats.Series.t;
}

type result = {
  period : float;
  seuss : side;
  linux : side;
}

val run :
  ?period:float ->
  ?duration:float ->
  ?burst_size:int ->
  ?seed:int64 ->
  unit ->
  result
(** Defaults: 32 s period, 300 s duration, 64-request bursts. *)

val report : result -> Report.t
(** Two log-scale scatter plots (Linux top, SEUSS bottom, like the
    figures) plus error counts; the data is the raw scatter: backend,
    stream, send_time_s, latency_s, ok. *)
