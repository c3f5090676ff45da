(** Unikernel contexts: the unit of deployment and isolation (§3).

    A UC owns an address space, a driver port behind the per-core proxy,
    and a guest simulation process. The host talks to it two ways: over
    the driver TCP connection (run arguments, warm-ups) and through the
    breakpoint hypercall (boot/compile completion, checkpoint requests)
    — the latter models watching the x86 debug register. *)

type t

type status = Running | Dead

val boot : Osenv.t -> Unikernel.Image.t -> t
(** Cold-boot a fresh unikernel (used once per runtime, to build the
    base snapshot). The guest will reach the ["driver-started"]
    breakpoint; await it with {!await_breakpoint}. *)

val deploy : Osenv.t -> Snapshot.t -> t
(** Deploy from a snapshot: shallow page-table copy, guest state
    restore, register state injection — charges {!Cost.deploy_total}.
    Takes a dependency reference on the snapshot.
    @raise Invalid_argument on a deleted snapshot. *)

val id : t -> int

val port : t -> int

val status : t -> status

val source_snapshot : t -> Snapshot.t option

val guest_state : t -> Unikernel.Guest.state
(** @raise Invalid_argument before the guest has started or after death. *)

val await_breakpoint : t -> timeout:float -> string option
(** Block until the guest reaches its next breakpoint; the guest stays
    parked until {!resume}. *)

val resume : t -> unit
(** Release a guest parked at a breakpoint. *)

val connect : t -> bool
(** Establish (or reuse) the host-side driver connection. *)

val send : t -> Unikernel.Driver.command -> bool
(** Fire a command without waiting for a network reply ([Init],
    [Checkpoint] — their ack is a breakpoint). [false] if no
    connection. *)

val request :
  t ->
  Unikernel.Driver.command ->
  timeout:float ->
  (Unikernel.Driver.reply, [ `Timeout | `Closed | `No_connection ]) result
(** Send and await the driver's network reply. *)

val capture : t -> env:Osenv.t -> name:string -> Snapshot.t
(** Snapshot this UC (it must be parked at a breakpoint). The UC's
    source snapshot becomes the parent. *)

val start_ws_record : t -> unit
(** Begin recording the vpns this UC demand-faults, in fault order
    (REAP-style working-set record; see {!Config.t.prefault_working_set}). *)

val take_ws_record : t -> int array
(** Stop recording and return the ordered faulted vpns ([[||]] if
    recording was never started). *)

val prefault : t -> vpns:int array -> Mem.Addr_space.prefault_stats
(** Batch-install a recorded working set into this UC's address space
    before the guest runs: pages are resident synchronously (no yield
    until after install), then one {!Cost.prefault_time} charge covers
    the batch and a [Ws_prefault] event is emitted. Demand-fault
    telemetry (hooks, COW events) does not fire for prefaulted pages. *)

val destroy : t -> unit
(** Kill the UC: close the connection, unmap the proxy port, release
    all private frames, drop the snapshot reference, and end the guest
    process (shut its listener, release it from a breakpoint). A guest
    parked on its connection ends when the FIN arrives; waking one
    parked in accept or at a breakpoint is the only engine event
    [destroy] adds. Idempotent, and
    safe on a UC whose guest already died on its own (OOM): resources
    are released exactly once regardless of how the UC reached [Dead];
    the {!Cost.destroy} charge applies only on the [Running] -> [Dead]
    transition. *)

val private_pages : t -> int
(** Frames exclusively owned by this UC (zero-fills + COW copies since
    deploy) — its marginal memory footprint. *)

val footprint_bytes : t -> int64
(** [private_pages * page_size] plus private page-table structures. *)

val touch_lru : t -> unit
(** Record use (for the OOM reclaimer's eviction order). *)

val is_released : t -> bool
(** [true] once {!destroy} (or guest death followed by destroy) has
    given the UC's frames and snapshot reference back. *)

val table : t -> Mem.Page_table.t
(** The UC's live page table — read by the ownership census to account
    for the frame references its address space still holds. *)
