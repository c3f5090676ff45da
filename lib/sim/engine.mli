(** Deterministic discrete-event simulation engine.

    The engine replaces the paper's physical 16-core testbed: simulated time
    advances only when events fire, so latency, throughput and contention are
    exact functions of the modeled costs rather than of the host machine.

    Processes are cooperative coroutines built on OCaml 5 effect handlers.
    Inside a process, {!sleep} advances simulated time and blocking
    primitives ({!Ivar}, {!Semaphore}, {!Channel}) suspend via {!suspend}.
    Events at equal timestamps fire in FIFO order (a monotonic sequence
    number breaks ties), which makes whole-experiment runs reproducible.
    The schedule sanitizer ([tie_seed] below, plus the {!Hb} checker)
    deliberately perturbs that tie order to flush out code that silently
    depends on it. *)

type t

val create :
  ?seed:int64 -> ?tie_seed:int64 -> ?deadlock:bool -> ?own:bool -> unit -> t
(** [create ?seed ()] is a fresh engine at time [0.0]. [seed] (default
    [1L]) initialises the engine's PRNG, from which experiments derive all
    randomness.

    [deadlock] arms the deadlock sanitizer: blocking primitives register
    their parked waiters with the engine, and at natural quiescence the
    wait-for graph is walked — every stranded waiter (and every daemon
    on a wait cycle) is handed to the {!add_deadlock_reporter}
    callbacks (default off). An armed engine whose run strands nobody
    makes no extra PRNG draws, schedules nothing extra, and prints
    nothing, so its outputs stay byte-identical to an unarmed run.

    [own] arms the ownership census: callbacks registered with
    {!add_census_hook} run once at natural quiescence (after the
    stranded-waiter report) so each node can count resources still held
    — leaked frames, snapshot references, pinned snapshots, undestroyed
    UCs (default off). Unarmed, nothing registers and outputs stay
    byte-identical to a build without the hook.

    [tie_seed] arms the schedule sanitizer's tie shuffler: events at
    equal timestamps fire in a seeded-random order instead of FIFO
    (order across distinct timestamps is untouched). Experiments that
    are honestly deterministic produce byte-identical outputs under any
    [tie_seed]; a divergence pinpoints latent dependence on same-time
    event order. Unarmed engines draw nothing from the shuffle stream
    and keep exact FIFO tie-breaking. *)

val tie_shuffling : t -> bool
(** Whether the tie shuffler is armed on this engine. *)

val now : t -> float
(** Current simulated time, in seconds. *)

val rng : t -> Prng.t

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs callback [f] at [now t +. delay].
    @raise Invalid_argument if [delay] is negative or not finite. *)

val spawn : t -> ?name:string -> ?daemon:bool -> (unit -> unit) -> unit
(** [spawn t f] starts process [f] at the current time. [f] may use
    {!sleep} and the blocking primitives. An exception escaping [f] aborts
    the whole simulation run ([name] is reported for diagnosis).

    [daemon] (default [false]) marks a process that is *expected* to
    park forever — an accept loop, a refill loop. Daemons are excluded
    from {!stuck_waiters} and from the deadlock report unless they sit
    on an actual wait cycle. *)

val spawn_supervised :
  t ->
  ?name:string ->
  ?daemon:bool ->
  ?on_crash:(string -> exn -> unit) ->
  (unit -> unit) ->
  unit
(** Like {!spawn}, but an exception escaping [f] — including an injected
    crash from the fault plane — kills only this process: the failure is
    recorded in {!failures}, [on_crash] (default: nothing) is notified,
    and the run continues. The supervision survives suspensions: a crash
    after any number of {!sleep}s or {!suspend}s is still contained. *)

val failures : t -> (string * exn) list
(** Supervised processes that died so far, oldest first, with the
    exception that killed each. *)

val run : ?until:float -> t -> unit
(** [run t] executes events in timestamp order until the queue drains, or
    until simulated time would exceed [until] (remaining events are left
    queued). Re-entrant calls are rejected. *)

val events_executed : t -> int
(** Total events fired so far, for tests and sanity checks. *)

val pending : t -> int
(** Events currently queued in the heap. Inside a running process this
    counts everyone else's scheduled work — a periodic daemon can use
    [pending t = 0] as its termination signal: nothing else will ever
    run, so sleeping again would only stretch the simulation. *)

(** {1 Engine self-profiling}

    Always-on counters, maintained with integer compares only: no
    allocation, no PRNG draws, no schedule effect. They feed the
    committed [BENCH_engine.json] baseline. *)

type perf = {
  dispatched : int;  (** events fired (heap pops) — {!events_executed} *)
  scheduled : int;  (** events ever queued (heap pushes) *)
  max_heap : int;  (** event-heap high-water mark *)
}

val perf : t -> perf

exception Process_failure of string * exn
(** Raised by {!run} when a spawned process raises: carries the process
    name and the original exception. *)

(** {1 Within a running process} *)

val self : unit -> t
(** The engine executing the current event.
    @raise Invalid_argument outside of a run. *)

val self_opt : unit -> t option
(** [self ()] without the exception — [None] outside of a run, so
    always-on instrumentation can degrade to a no-op. *)

(** {1 Process-local storage}

    One universal slot per process. A value set while a process runs is
    preserved across {!sleep} / {!suspend} and inherited by processes it
    {!spawn}s; callbacks registered with plain {!schedule} start with an
    empty slot. This is the substrate for per-process trace contexts
    ({!Trace}): two in-flight operations each carry their own context
    instead of sharing an engine-global one. *)

type local = exn
(** The slot is untyped; clients embed their state with an extensible
    [exception] constructor (the standard universal-type idiom), which
    keeps the engine independent of what it carries. *)

val get_local : t -> local option
(** The slot of the currently-dispatching process. *)

val set_local : t -> local option -> unit
(** Overwrite the current process's slot (takes effect for the rest of
    this process's lifetime, including after suspensions). *)

val set_local_fork : t -> (local option -> local option) option -> unit
(** Install a fork hook for the primary slot, mirroring
    {!set_san_fork}: when present, a spawned child's initial slot is
    [fork parent_slot], computed at [spawn] time. {!Trace} uses this to
    give every process its own span stack while capturing the parent
    span open at the spawn — the cross-process causal link. [None]
    (default) shares the parent's value verbatim. *)

(** {1 Sanitizer process slot}

    A second process-local slot, reserved for the happens-before
    sanitizer ({!Hb}) so it never competes with trace contexts for
    {!get_local}. It behaves like the primary slot (preserved across
    {!sleep}/{!suspend}, cleared for plain {!schedule} callbacks) except
    at {!spawn}: if a fork hook is installed the child's initial slot is
    [fork parent_slot] — computed when [spawn] is called — letting the
    sanitizer give every process its own identity while recording the
    spawn ordering edge. *)

val get_san_local : t -> local option

val set_san_local : t -> local option -> unit

val set_san_fork : t -> (local option -> local option) option -> unit

(** {1 Sanitizer engine slot}

    Engine-owned slot for the happens-before checker's per-engine state,
    using the same universal-type embedding as {!fault_plan}. Empty by
    default; an engine with no checker installed makes no extra PRNG
    draws and schedules nothing extra, so its event stream is
    bit-identical to an unsanitized build. *)

val san_state : t -> local option

val set_san_state : t -> local option -> unit

(** {1 Fault-plan slot}

    One engine-owned slot for the fault-injection plan (see the [faults]
    library), using the same universal-type embedding as {!local}. The
    engine never interprets the value; it only carries it so injection
    sites across the stack can reach the plan of the running simulation
    without a dependency cycle. Empty by default: a simulation with no
    installed plan makes no PRNG draws for fault decisions, so its event
    stream is bit-identical to a build without the fault plane. *)

val fault_plan : t -> local option

val set_fault_plan : t -> local option -> unit

val sleep : float -> unit
(** Suspend the current process for a simulated duration (>= 0). *)

val yield : unit -> unit
(** [yield ()] is [sleep 0.]: lets other events at this timestamp run. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the current process. [register resume] is
    called immediately with a one-shot [resume] function; calling
    [resume ()] re-schedules the process at the then-current time. This is
    the primitive from which all blocking structures are built. *)

(** {1 Deadlock sanitizer}

    The dynamic cross-check of the static [seussdead] pass. Blocking
    primitives bracket every park with {!wait_begin} / {!wait_end};
    the engine counts parked processes always (so {!stuck_waiters} is
    meaningful even with the detector off) and, when armed
    ([?deadlock] at {!create}), keeps a wait
    table it walks at natural quiescence: a run that ends with parked
    non-daemon processes — or daemons on a wait cycle — leaked them,
    whether by lost wakeup (a forgotten [Ivar.fill]) or by genuine
    deadlock (a lock cycle). *)

val deadlock_armed : t -> bool

val stuck_waiters : t -> int
(** Non-daemon processes currently parked in a blocking primitive.
    After {!run} returns having drained its queue, a nonzero count
    means the simulation quiesced with live processes stranded — a
    silent-quiescence bug even when the detector is off. *)

type stranded = {
  resource : string;  (** e.g. ["semaphore#3"], ["ivar#12"] *)
  proc : string;  (** process name at {!spawn} *)
  pid : int;
  spawned_at : float;  (** simulated time the process started *)
  waiting_since : float;  (** simulated time it parked *)
  holders : int list;  (** pids holding the resource, when known *)
  in_cycle : bool;  (** sits on a wait-for cycle (true deadlock) *)
}

val stranded_waiters : t -> stranded list
(** The stranded-waiter report, sorted by park order: every parked
    non-daemon waiter plus every daemon on a wait-for cycle. [[]] when
    the detector is unarmed (use {!stuck_waiters} for the raw count). *)

val add_deadlock_reporter : t -> (stranded -> unit) -> unit
(** Register a callback invoked once per stranded waiter when {!run}
    reaches natural quiescence with the detector armed. Reporters run
    outside any process — they must not block (the [seussdead] static
    pass enforces this). *)

(** {1 Ownership census}

    The dynamic half of the [seussown] static pass: with the census
    armed ([?own] at {!create}), hooks registered via
    {!add_census_hook} run once when {!run} reaches natural quiescence,
    after the stranded-waiter report. Each node registers a hook that
    counts the resources still held beyond its caches — the runtime
    ground truth for the statically-proven acquire/release pairing. *)

val own_armed : t -> bool

val add_census_hook : t -> (unit -> unit) -> unit
(** Register a quiescence census hook (registration order preserved).
    Hooks run outside any process — they must not block. Never invoked
    when the census is unarmed. *)

val current_pid : t -> int
(** Pid of the currently-dispatching process, [0] outside one. *)

val fresh_resource : t -> string -> string
(** [fresh_resource t kind] is a unique display name ["kind#N"] for a
    blocking resource, assigned on first wait so unarmed runs never
    pay for naming. *)

val wait_begin : t -> resource:(unit -> string) -> holders:(unit -> int list) -> int
(** Called by a blocking primitive as the current process parks.
    Returns the wait token to hand back to {!wait_end}. The [resource]
    and [holders] thunks are consulted only when the detector is
    armed; [holders] is re-read at quiescence so it should report the
    resource's *current* holder pids. *)

val wait_end : t -> int -> unit
(** Close a wait begun with {!wait_begin}. Runs in the resumer's
    context, so primitives must call it from the wakeup path they
    enqueue, not rely on the parked process itself. *)
