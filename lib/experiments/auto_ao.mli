(** Automatic anticipatory-optimization discovery (paper §9: "we are
    exploring the use of continuous hardware tracing along with machine
    learning to automatically identify optimization opportunities within
    snapshots").

    This analyzer needs no tracing at all: it treats the node as a black
    box, measures cold and warm NOP latency under the three AO levels,
    and solves the resulting linear system for the first-use cost of
    each warmable guest component — i.e. it recovers what priming each
    component is worth, which is exactly the decision AO needs. Because
    the reproduction knows the ground truth ({!Unikernel.Gconst}), the
    report shows inferred-vs-actual, validating the methodology. *)

type component = {
  comp_name : string;
  inferred_ms : float;  (** first-use cost recovered from latencies *)
  actual_ms : float;  (** the model's ground truth *)
  savings : string;  (** which paths priming it accelerates *)
}

type result = {
  components : component list;
  max_relative_error : float;
  failed : int;  (** {!Table2.result.failed} of the measurement *)
}

val run : ?invocations:int -> ?seed:int64 -> unit -> result

val render : result -> string
