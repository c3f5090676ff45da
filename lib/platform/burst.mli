(** The burst-resiliency experiment of Figures 6-8.

    A continuous background stream (128 worker threads, 16 unique
    IO-bound functions, rate-throttled to 72 requests/s; each function
    blocks ~250 ms on an external HTTP endpoint) runs for the whole
    experiment. On top of it, a burst of concurrent invocations of one
    CPU-bound function (~150 ms of compute; a fresh function every
    burst) fires at a fixed period. The result records every request as
    a (send time, latency, ok) point — the figures' scatter data. *)

type config = {
  duration : float;  (** total simulated seconds *)
  background_threads : int;
  background_fns : int;
  background_rate : float;  (** requests per second *)
  io_url : string;  (** external endpoint the IO functions call *)
  burst_period : float;  (** 32 / 16 / 8 seconds *)
  burst_size : int;  (** concurrent requests per burst *)
  first_burst_at : float;
  cpu_ms : float;
  seed : int64;
}

val default : config
(** The paper's parameters with a 64-request burst every 32 s over a
    300 s run. *)

type result = {
  background : Stats.Series.t;
      (** one point per background request: every token sent is served
          or failed, even one still queued when the run ends *)
  background_sent : int;  (** background tokens the feed sent *)
  bursts : Stats.Series.t;
  background_errors : int;
  burst_errors : int;
}

val run :
  invoke:(Controller.fn_spec -> (unit, string) Stdlib.result) -> config -> result
(** Blocking; call within a simulation process. The caller must have
    registered [io_url]'s external server (see
    {!Seuss.Osenv.register_host}) so the IO-bound functions can reach
    it.
    @raise Invalid_argument if [burst_period] or [background_rate] is
    not positive. *)
