(** Causal span tracing over simulated time.

    A diagnostic facility: instrumented code wraps operations in
    {!span}; when no trace is active the wrapper is a no-op.

    Every recorded span carries a stable id, its parent's id and the
    simulated pid that recorded it, so a trace is an exportable causal
    tree (see [Obs.Chrome] for the Chrome trace-event encoding), not
    just a waterfall. Parent links cross process boundaries: the
    context's {!Engine.key} forks at spawn, so a child spawned under an
    open span starts with that span as its inherited parent.

    A trace is a {b process-local context} ({!start_ctx} /
    {!stop_ctx}): it is the current process's value of an {!Engine}
    key, preserved across suspensions and forked for spawned
    children — each process gets its own open-span stack over the
    shared span sink, so two in-flight invocations record disjoint span
    trees, concurrently. {!span} / {!mark} record into the current
    process's context, and are no-ops in a process without one. *)

type span = {
  id : int;  (** unique within its trace, allocated at span entry *)
  parent : int option;
      (** innermost span open when this one started — in the same
          process, or in the spawner at spawn time *)
  pid : int;  (** {!Engine.current_pid} of the recording process *)
  name : string;
  depth : int;  (** nesting level at entry (spawn depth included) *)
  t_start : float;
  t_end : float;
}

type t

val start_ctx : Engine.t -> t
(** Create a context and install it as the current process's trace
    (replacing any inherited one). Call from inside a process; children
    spawned afterwards get forked contexts parented to the span open at
    the spawn. *)

val stop_ctx : t -> span list
(** Deactivate and return the spans in start order. Uninstalls the
    context from the calling process if it is still the one
    installed. *)

(** {1 Recording} *)

val span : string -> (unit -> 'a) -> 'a
(** Record [f]'s simulated time window under [name]. On exception the
    span is still closed — recorded with a [" [failed]"] suffix and its
    id popped, so later siblings keep correct parents — and the
    exception re-raised. No-op without an active trace. *)

val mark : string -> unit
(** A zero-width span. *)

val render : span list -> string
(** A waterfall: start/end/duration columns in milliseconds, with
    indentation. *)
