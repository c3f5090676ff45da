(** Synthetic MiniJS function corpus for trace-driven load.

    Rank [i] of a trace maps to one deterministic function: an id, a
    MiniJS source whose size follows the function's {e import profile}
    (the AST node count drives the simulated import/compile cost and the
    pages a compilation dirties, so bigger profiles genuinely cost more
    on the SEUSS cold path), and an equivalent CPU cost for backends
    that execute modeled actions instead of source. The profile mix is a
    fixed 70/25/5 split of small/medium/large by index, so any
    contiguous rank range sees all three. *)

type profile = Small | Medium | Large

val profile_of_index : int -> profile

val profile_name : profile -> string

val fn_id : int -> string
(** ["zf-<i>"] — stable across runs, distinct from the closed-loop
    experiments' ["fn-<i>"] namespace. Memoized like {!source}. *)

val work_ms : int -> float
(** Modeled handler CPU time: 0 / 0.2 / 1.0 ms by profile — what the
    container baselines charge in place of interpreting the source. *)

val source : int -> string
(** The function's MiniJS source: [profile]-many helper definitions (the
    import payload) plus a [main] that exercises them and burns
    {!work_ms}.

    Results are memoized per index: the first call for a non-negative
    [i] builds the string, and every later call returns that same
    shared string. The memo keeps every index asked for, a few hundred
    bytes each, for the life of the process. A negative [i] is built on
    each call. *)
