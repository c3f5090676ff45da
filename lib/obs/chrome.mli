(** Chrome trace-event JSON encoding (the format Perfetto and
    [chrome://tracing] load).

    This module is deliberately engine-agnostic — it encodes neutral
    event records whose timestamps are already in microseconds; the
    adapter from [Sim.Trace] spans lives in the [seuss] library, which
    owns the engine-time→microsecond mapping (simulated seconds × 1e6).

    The emitted document is the "JSON object format":
    [{"traceEvents": [...], "displayTimeUnit": "ms"}], with ["X"]
    (complete) events for spans, ["i"] (instant) events for marks, and
    ["M"] metadata records naming processes and threads. *)

type event =
  | Complete of {
      name : string;
      cat : string;
      ts_us : float;  (** start, microseconds *)
      dur_us : float;
      pid : int;
      tid : int;
      args : (string * Json.t) list;
    }
  | Instant of {
      name : string;
      cat : string;
      ts_us : float;
      pid : int;
      tid : int;
      args : (string * Json.t) list;
    }
  | Process_name of { pid : int; name : string }
      (** Metadata: labels a pid lane in the viewer. *)
  | Thread_name of { pid : int; tid : int; name : string }

val event_to_json : event -> Json.t

val trace : event list -> Json.t
(** The whole document; every event carries the required [ph], [ts],
    [pid], [tid] and [name] fields. *)
