(** [Sim.Trace] → Chrome trace-event adapter.

    Owns the engine-time→microsecond mapping (simulated seconds × 1e6)
    and the lane layout: each named trace becomes one Chrome {e process}
    lane, and each simulated pid that recorded spans inside it becomes a
    {e thread} within that lane, so cross-process causality through
    [spawn] reads as parallel tracks in Perfetto. Span/parent ids ride
    in the [args] of every event ([span_id] / [parent_id]).

    Zero-width spans ([Sim.Trace.mark]) export as instant events;
    everything else as complete ("X") events. *)

val span_events : pid:int -> Sim.Trace.span list -> Obs.Chrome.event list
(** Encode one trace's spans into lane [pid], category ["sim"]. *)

val chrome : (string * Sim.Trace.span list) list -> Obs.Json.t
(** The full document for a list of labelled traces: process/thread
    metadata plus every span. *)

val chrome_string : (string * Sim.Trace.span list) list -> string
(** File body for [seussctl trace --chrome <file>] and
    [seussctl events --chrome <file>]. *)
