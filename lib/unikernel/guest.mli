(** The software running inside a unikernel context.

    A guest is the Rumprun + interpreter + invocation-driver stack,
    executed as one simulation process over the UC's address space. Its
    observable state is split exactly the way SEUSS needs it:

    - {b resumable state} ({!snapshot_state}): warmth of the lazily
      initialized components, heap/nursery cursors, and the loaded
      program — everything a snapshot must freeze so that a new UC can
      continue "at the instruction where the snapshot was triggered";
    - {b per-UC bindings} ({!env}): the address space, listener,
      hypercalls and PRNG a deployed UC receives from the host.

    The guest reaches breakpoints (debug-register hypercall) at the two
    capture points: ["driver-started"] (base runtime snapshot) and
    ["compile-ok"] (function-specific snapshot). *)

type env = {
  image : Image.t;
  space : Mem.Addr_space.t;
  listener : Net.Tcp.listener;
  hypercalls : Hypercall.t;
  rng : Sim.Prng.t;
  cpu_burn : float -> unit;
      (** occupy a core for the given CPU seconds. The host supplies a
          core-semaphore-backed implementation so that guest compute
          contends for the node's 16 cores while guest IO waits do not
          (EbbRT's event-driven model); tests pass [Sim.Engine.sleep]. *)
}

type state
(** Live, mutable guest state bound to one UC. *)

type snapshot_state
(** A frozen copy, safe to share as a deploy template. *)

type warmth = {
  net_pool : bool;
  net_send : bool;
  compiler : bool;
  exec_cache : bool;
}

val boot : ?on_ready:(state -> unit) -> env -> state
(** Run the full boot path: Rumprun kernel, interpreter initialization,
    driver start — sleeping the modeled times and writing the image's
    pages. Ends by reaching the ["driver-started"] breakpoint;
    [on_ready] fires just before it, giving the host a handle on the
    state while the guest is parked (breakpoints block, so [boot] does
    not return until the host resumes). *)

val serve : state -> unit
(** The invocation-driver loop: accept a connection, handle
    {!Driver.command}s, repeat. Returns once the listener is shut
    ({!Net.Tcp.shutdown}) and the current connection, if any, has
    closed. *)

val capture : state -> snapshot_state
(** Freeze the current guest state (deep-copies the interpreter world). *)

val restore : env -> snapshot_state -> state
(** Bind a frozen state to a new UC: arena cursors are restored and the
    interpreter world is cloned against the new env's hypercalls. *)

val warmth : state -> warmth

val program_source : state -> string option

val snapshot_program_source : snapshot_state -> string option
(** The source of the program the frozen state carries, if any — the
    salt the snapshot store uses to give each function's compiled
    bytecode its own content identity. *)

val snapshot_heap_pages : snapshot_state -> int
(** Heap pages in use at capture (bump-cursor extent, rounded up). The
    tail of this extent is the function-specific bytecode; everything
    below it is content every snapshot of the same runtime shares. *)
