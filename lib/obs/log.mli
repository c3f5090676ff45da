(** The structured event log: a typed, engine-timestamped event bus.

    Emitted events are stamped with the injected clock (the simulation
    engine's [now] in practice — the log itself is engine-agnostic so
    lower layers can host one), retained in a bounded ring, and fanned
    out to any attached subscribers. The ring is O(1) per emit and
    overwrites its oldest entry once full, which bounds the log's memory
    so telemetry can stay on during the 65k-function experiments. It
    stores times and events unboxed: a {!record} is built only for
    subscribers and readers. Emission costs no simulated time:
    telemetry never perturbs the quantities it measures. *)

type record = { time : float; ev : Event.t }

type t

val default_capacity : int
(** Ring size of every log: 16384 events. *)

val create : clock:(unit -> float) -> unit -> t

val emit : t -> Event.t -> unit
(** Stamp with [clock ()], retain, and deliver to subscribers (in
    subscription order). *)

val subscribe : t -> (record -> unit) -> unit
(** Attach a live consumer; it sees every event from now on, including
    ones the ring later evicts. *)

val records : t -> record list
(** Retained records, oldest first. *)

val emitted : t -> int
(** Total events ever emitted (retained + evicted). *)

val dropped : t -> int
(** Events evicted from the ring so far. *)

val to_jsonl : t -> string
(** One JSON object per line (trailing newline), oldest first. *)

val parse_jsonl : string -> (record list, string) result
(** Inverse of {!to_jsonl}; blank lines are skipped. [Error] names the
    first offending line. *)
