(** Figure 5 — end-to-end request latency percentiles (1st / 25th / 50th
    / 75th / 99th and mean) of NOP invocations at three function set
    sizes, on both backends.

    The paper's panels use 64 (cache-friendly), 2048 (Linux cache
    saturated) and 65536 (all-unique). At 65536, every send is a unique
    function, so the trial does not need 65536 requests to be in the
    all-cold regime. *)

type panel = {
  set_size : int;
  seuss : Stats.Summary.digest;
  linux : Stats.Summary.digest;
  seuss_errors : int;
  linux_errors : int;
}

val run :
  ?set_sizes:int list ->
  ?requests:int ->
  ?client_threads:int ->
  ?seed:int64 ->
  unit ->
  panel list
(** Defaults: sizes [64; 2048; 65536], 2048 measured requests each. *)

val report : panel list -> Report.t
(** Per panel, one row per backend: p1..p99, mean (ms) and errors. *)
