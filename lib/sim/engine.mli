(** Deterministic discrete-event simulation engine.

    The engine replaces the paper's physical 16-core testbed: simulated time
    advances only when events fire, so latency, throughput and contention are
    exact functions of the modeled costs rather than of the host machine.

    Processes are cooperative coroutines built on OCaml 5 effect handlers.
    Inside a process, {!sleep} advances simulated time and blocking
    primitives ({!Ivar}, {!Semaphore}, {!Channel}) park on a {!Waitq}.
    Events at equal timestamps fire in FIFO order (a monotonic sequence
    number breaks ties), which makes whole-experiment runs reproducible.
    The schedule sanitizer ([tie_seed] below, plus the {!Hb} checker)
    deliberately perturbs that tie order to flush out code that silently
    depends on it. *)

type t

val create : ?seed:int64 -> ?tie_seed:int64 -> ?check:bool -> unit -> t
(** [create ?seed ()] is a fresh engine at time [0.0]. [seed] (default
    [1L]) initialises the engine's PRNG, from which experiments derive all
    randomness.

    [check] (default off) arms every run-time checker at once:
    - the {!Hb} race checker;
    - the deadlock detector: blocking primitives register their parked
      waiters with the engine, and semaphores check the order their
      permits are taken in ({!stranded_waiters});
    - the {!at_quiescence} hooks, through which each node counts the
      resources it still holds (the ownership census) and each env logs
      the stranded waiters.
    A checked engine whose run races, strands and leaks nothing makes
    no extra PRNG draws, schedules nothing extra and prints nothing, so
    its outputs stay byte-identical to an unchecked run.

    [tie_seed] arms the schedule sanitizer's tie shuffler: events at
    equal timestamps fire in a seeded-random order instead of FIFO
    (order across distinct timestamps is untouched). Experiments that
    are honestly deterministic produce byte-identical outputs under any
    [tie_seed]; a divergence pinpoints latent dependence on same-time
    event order. Unarmed engines draw nothing from the shuffle stream
    and keep exact FIFO tie-breaking. *)

val now : t -> float
(** Current simulated time, in seconds. *)

val rng : t -> Prng.t

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs callback [f] at [now t +. delay].
    @raise Invalid_argument if [delay] is negative or not finite. *)

type timer
(** A handle on one event queued by {!schedule_timer}. *)

val schedule_timer : t -> delay:float -> (unit -> unit) -> timer
(** [schedule] that also returns a handle for {!cancel}. The event
    orders, fires and counts in {!perf} exactly as a {!schedule}d one.
    @raise Invalid_argument if [delay] is negative or not finite. *)

val cancel : t -> timer -> unit
(** [cancel t tm] removes [tm]'s event from the queue in O(log n): its
    callback never runs, it is never counted as dispatched, and
    {!pending} drops by one. Cancelling a timer that already fired or
    was already cancelled is a no-op, also after its queue slot has
    been reused by a later event. Nothing else moves: the remaining
    events fire in the same order, and no PRNG is drawn. *)

val spawn : t -> ?name:string -> ?daemon:bool -> (unit -> unit) -> unit
(** [spawn t f] starts process [f] at the current time. [f] may use
    {!sleep} and the blocking primitives. An exception escaping [f] aborts
    the whole simulation run ([name] is reported for diagnosis).

    [daemon] (default [false]) marks a process that is *expected* to
    park forever — an accept loop, a refill loop. Daemons are excluded
    from {!stuck_waiters} and from the deadlock report unless they sit
    on an actual wait cycle. *)

val run : ?until:float -> t -> unit
(** [run t] executes events in timestamp order until the queue drains, or
    until simulated time would exceed [until] (remaining events are left
    queued). Re-entrant calls are rejected. *)

val pending : t -> int
(** Live events currently queued: a {!cancel}led timer no longer
    counts. Inside a running process this counts everyone else's
    scheduled work — a periodic daemon can use [pending t = 0] as its
    termination signal: nothing else will ever run, so sleeping again
    would only stretch the simulation. *)

(** {1 Engine self-profiling}

    Always-on counters, maintained with integer compares only: no
    allocation, no PRNG draws, no schedule effect. They feed the
    committed [BENCH_engine.json] baseline. *)

type perf = {
  dispatched : int;  (** events fired (heap pops) *)
  scheduled : int;  (** events ever queued (heap pushes) *)
  max_heap : int;  (** event-heap high-water mark *)
}
(** A {!sleep} resumed in place counts as the push and the pop it
    skipped, so these read the same as if it had gone through the
    heap. A {!cancel}led timer counts as scheduled, never as
    dispatched. *)

val perf : t -> perf

exception Process_failure of string * exn
(** Raised by {!run} when a spawned process raises: carries the process
    name and the original exception. [Printexc.to_string] prints both,
    e.g. [Process_failure("experiment", Invalid_argument("option is
    None"))]. *)

(** {1 Within a running process} *)

val self : unit -> t
(** The engine executing the current event.
    @raise Invalid_argument outside of a run. *)

val self_opt : unit -> t option
(** [self ()] without the exception — [None] outside of a run, so
    always-on instrumentation can degrade to a no-op. *)

(** {1 Keys}

    Typed storage for the engine's clients — trace contexts ({!Trace}),
    the happens-before checker ({!Hb}), the fault plan — so the engine
    stays independent of what they carry. Each client mints one key at
    module initialisation. A key holds a value per process ({!get} /
    {!set}) and one engine-wide value ({!get_global} / {!set_global});
    every value starts unset.

    A process's value is preserved across {!sleep} and a park. At
    {!spawn}, the child starts with [fork t parent_value] for every key,
    computed when [spawn] is called, in key-creation order — also when
    the parent holds no value. A plain {!schedule} callback starts with
    every key unset; a value set there lasts until the callback
    returns, and processes it spawns fork from it. *)

type 'a key

val new_key : ?fork:(t -> 'a option -> 'a option) -> unit -> 'a key
(** A fresh key. [fork] (default: share the parent's value verbatim)
    gives a spawned child its initial value from its spawner's. *)

val get : t -> 'a key -> 'a option
(** The currently-dispatching process's value. *)

val set : t -> 'a key -> 'a option -> unit
(** Overwrite the current process's value, for the rest of its
    lifetime. *)

val get_global : t -> 'a key -> 'a option
(** The engine-wide value. *)

val set_global : t -> 'a key -> 'a option -> unit

val sleep : float -> unit
(** Suspend the current process for a simulated duration (>= 0).

    When the wakeup would be the very next event — the queue is empty
    or its earliest event is strictly later, the wakeup is within
    {!run}'s [until], and the tie shuffler is unarmed — the process
    resumes in place, without a heap round trip; time, dispatch order
    and {!perf} are exactly as if it had parked. Called from a plain
    {!schedule} callback, it raises [Effect.Unhandled].
    @raise Invalid_argument in the calling process when the delay is
    negative or not finite, so {!run} fails with {!Process_failure}
    naming that process, and inside an atomic section. *)

val yield : unit -> unit
(** [yield ()] is [sleep 0.]: lets other events at this timestamp run. *)

(** {1 Atomic sections}

    A callback that runs in the middle of an update (a memory fault
    hook, a log clock, a race reporter, a quiescence hook) must
    not suspend. Inside a process a suspension would park it mid-update
    and let other processes run against the half-done state; outside
    one there is no handler to park it. Such a callback runs in a
    section ({!atomic}). While a section is open, {!sleep} and {!yield}
    raise [Invalid_argument] naming the primitive and the section, and
    so does every blocking primitive on entry ({!may_block}), also when
    the call would not have blocked this time. The depth lives in the
    engine, not in a process: code inside a section cannot suspend, so
    nothing else runs until it is left.
    Entering, leaving and the checks allocate nothing, schedule nothing
    and draw nothing. *)

val atomic : t -> what:string -> ('a -> 'b) -> 'a -> 'b
(** [atomic t ~what f x] is [f x] inside a section named [what], which
    is left also when [f] raises. Sections nest; a failure names the
    outermost open one. *)

val atomic_enter : t -> what:string -> unit
(** Open a section without a closure, for a callback of two arguments
    that must not allocate per call. Pair it with {!atomic_leave}, also
    on the exception path; {!run} resets the depth when it returns or
    raises. *)

val atomic_leave : t -> unit
(** Close the innermost section.
    @raise Invalid_argument when no section is open. *)

val may_block : string -> unit
(** [may_block prim] is called on entry by every primitive that can
    suspend; [prim] names it (["Semaphore.acquire"]).
    @raise Invalid_argument naming [prim] and the section when the
    running engine is inside an atomic section. *)

(** {1 Checkers}

    The run-time deadlock check and the quiescence hooks. Every park
    goes through a {!Waitq}, which counts parked processes always (so
    {!stuck_waiters} is meaningful unchecked) and, on a checked engine
    ([?check] at {!create}), records each waiter in a wait table walked
    at natural quiescence: a run that ends with parked non-daemon
    processes — or daemons on a wait cycle — leaked them, whether by
    lost wakeup (a forgotten [Ivar.fill]) or by genuine deadlock (a lock
    cycle). Checked, {!Semaphore} also checks the order in which each
    process takes its permits ({!note_order_cycle}), which catches two
    opposite lock orders even on a schedule where they never
    deadlock. *)

val checked : t -> bool
(** Whether [?check] armed the checkers at {!create}. *)

val at_quiescence : t -> (unit -> unit) -> unit
(** Register a hook that runs once when {!run} reaches natural
    quiescence (the queue drained, not an [until] cut) on a checked
    engine, after the last event: an env logs {!stranded_waiters}
    there, and a node counts the resources it still holds. Hooks run
    in registration order, outside any process, each in an atomic
    section, so one that suspends fails the run with
    [Invalid_argument] naming the ["quiescence hook"] section. Never
    run on an unchecked engine. *)

val stuck_waiters : t -> int
(** Non-daemon processes currently parked in a blocking primitive.
    After {!run} returns having drained its queue, a nonzero count
    means the simulation quiesced with live processes stranded — a
    silent-quiescence bug also on an unchecked engine. *)

type stranded = {
  resource : string;
      (** e.g. ["semaphore#3"], ["ivar#12"], or the cycle of a
          {!note_order_cycle} entry *)
  proc : string;  (** process name at {!spawn} *)
  pid : int;
  spawned_at : float;  (** simulated time the process started *)
  waiting_since : float;  (** simulated time it parked *)
  holders : int list;  (** pids holding the resource, when known *)
  in_cycle : bool;  (** sits on a wait-for cycle (true deadlock) *)
}

val stranded_waiters : t -> stranded list
(** The stranded-waiter report: every parked non-daemon waiter plus
    every daemon on a wait-for cycle, sorted by park order, then every
    lock-order cycle ({!note_order_cycle}) whose process is not already
    on a wait-for cycle, in the order found. [[]] on an unchecked
    engine (use {!stuck_waiters} for the raw count). *)

val note_order_cycle : t -> string -> unit
(** [note_order_cycle t cycle] adds a {!stranded_waiters} entry for the
    current process: it is about to take a lock that some process took
    while holding one this process holds now, so the two lock orders
    form a cycle. {!Semaphore} calls it, checked only; [cycle] names the
    locks (["lock order semaphore#1 -> semaphore#2 -> semaphore#1"]).
    The entry has [in_cycle = true], no holders, and the current time
    as [waiting_since]. *)

val current_pid : t -> int
(** Pid of the currently-dispatching process, [0] outside one. *)

(** {1 Waiter queues}

    The one park-and-wake mechanism under every blocking primitive,
    made once per primitive. Each wake pushes one resume event at the
    current time, in FIFO order. A park with a deadline queues one
    cancellable event: a wake first pushes the resume, then cancels it;
    the deadline firing resumes the waiter and leaves it linked for a
    wake-one to pass over. Unchecked, a park allocates only its waiter
    and its continuation; checked, it is recorded for the deadlock
    report. *)

module Waitq : sig
  type engine := t
  type t

  val create : ?holders:(unit -> int list) -> string -> t
  (** [create ~holders kind] is an empty queue. [holders] (default
      none) reports the pids holding the resource, re-read at
      quiescence. *)

  val name : engine -> t -> string
  (** ["kind#N"], [N] numbered on the engine's first call. *)

  val park : t -> unit
  (** Park the current process until a wake. Unchecked: primitives call
      {!may_block} on entry. *)

  val park_until : t -> deadline:float -> bool
  (** Park until a wake ([true]) or simulated time [deadline] ([false]);
      a past deadline returns [false] at once.
      @raise Invalid_argument if [deadline] is [infinity] or NaN. *)

  val wake_one : t -> bool
  (** Resume the first waiter not timed out; [false] if none is left. *)

  val wake_all : t -> unit
  (** Resume every waiter not timed out, in FIFO order. *)
end
