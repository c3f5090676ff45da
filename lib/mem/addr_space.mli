(** A unikernel context's flat virtual address space.

    Wraps a {!Page_table.t} with x86-like fault semantics:

    - a write to an absent page demand-allocates a zero frame;
    - a write to a copy-on-write page clones the frame privately;
    - a write to a writable page just sets the dirty bit;
    - reads never allocate (absent reads hit the shared zero page).

    Fault counts are exposed so the cost model can charge simulated time
    per fault — the "pages copied during the execution" column of
    Table 1 is read straight off these counters.

    Every write entry point — {!touch_write}, {!write_range} and
    {!prefault} — resolves its pages through the one
    {!Page_table.write_pages}, a leaf at a time, so they cannot drift
    apart. *)

type t

type fault = No_fault | Zero_fill | Cow_copy

type write_stats = { pages : int; zero_fills : int; cow_copies : int }

type prefault_stats = {
  requested : int;  (** vpns passed in (duplicates counted again) *)
  prefault_zero_fills : int;  (** were absent: fresh zero frames mapped *)
  prefault_cow_copies : int;  (** were copy-on-write: privately copied *)
  already_mapped : int;  (** were already writable: only flags set *)
}

val create : Frame.t -> t
(** A fresh, empty address space. *)

val of_table : ?mapped_hint:int -> Frame.t -> Page_table.t -> t
(** Deploy over a *frozen* table (read-only + copy-on-write entries with
    clean dirty bits, as produced by snapshot capture): shallow
    page-table copy in O(root size) — the SEUSS deploy primitive.
    [mapped_hint] seeds the O(1) mapped-page counter (snapshots know
    their totals); without it the table is walked once. The allocator
    argument must be the one the table draws from; writes reach it
    through the table. *)

val table : t -> Page_table.t

val touch_write : t -> vpn:int -> fault
(** Write one page; a resolved fault reports a count of 1 to the fault
    hook. @raise Frame.Out_of_memory when a needed allocation exceeds
    the budget (the page is left unmodified).
    @raise Invalid_argument on a read-only, non-COW page. *)

val set_fault_hook : t -> (fault -> int -> unit) -> unit
(** Install an observer of {e resolved} faults ([Zero_fill] /
    [Cow_copy]; never [No_fault]), called with no simulated-time cost.
    It hears [kind n] for [n >= 1] faults of one kind: once per faulting
    {!touch_write}, and at most once per kind for a {!write_range},
    after the whole range resolved (or, when [Frame.Out_of_memory]
    stops the range, with the pages resolved before it). Its sums per
    kind therefore always equal the {!lifetime_zero_fills} /
    {!lifetime_cow_copies} deltas outside {!prefault}. The owning layer
    uses this to feed fault telemetry (counters, COW-fault events)
    without [mem] depending on it. One hook per space; installing
    replaces the previous one. *)

(** {2 Working-set recording and batched prefault (REAP)}

    Recording the ordered set of vpns demand-faulted during a deploy's
    first invocation, then installing that set in one batched pass on
    later deploys from the same snapshot, removes the per-page fault
    storm from the warm path (Ustiugov et al., ASPLOS '21). *)

val start_trace : t -> unit
(** Arm the access trace: every subsequently {e resolved} fault
    ([Zero_fill] / [Cow_copy]) appends its vpn, in fault order. Arming
    replaces any trace in progress. Recording stops silently after
    65536 vpns (a runaway function, not a working set). *)

val take_trace : t -> int array
(** Disarm and return the vpns recorded since {!start_trace}, in fault
    order (each vpn appears at most once per trace: a page faults at
    most once between freezes). Empty if not armed. The array is fresh:
    the caller owns it. *)

val tracing : t -> bool

val prefault : t -> vpns:int array -> prefault_stats
(** Install a recorded working set in one batched page-table pass: each
    vpn ends in exactly the state a demand {!touch_write} would leave it
    (zero-filled, COW-copied, or just dirty), lifetime and
    mapped/dirty counters included, but the fault hook never fires — no
    faults occur; the caller charges one batched cost from the stats.
    Structural sharing is preserved: only leaves holding prefaulted vpns
    are privatized. Each run of consecutive vpns is resolved by one
    {!Page_table.write_pages} call, in array order.
    @raise Frame.Out_of_memory mid-batch (installed pages stay
    installed, like a partial {!write_range}). *)

val write_range : t -> vpn:int -> pages:int -> write_stats
(** Write [pages] consecutive pages starting at [vpn], in vpn order.
    Pages resolve silently and the fault hook then hears one count per
    fault kind (see {!set_fault_hook}); the access trace still records
    each faulting vpn in order.
    @raise Frame.Out_of_memory mid-range: pages before the failing one
    stay installed, and their faults are reported before the raise. *)

val mapped_pages : t -> int
(** O(1), maintained incrementally (exact when [of_table]'s hint was). *)

val dirty_pages : t -> int
(** O(1): pages written since creation or the last {!freeze} — the
    size of the diff a snapshot would capture. *)

val mapped_pages_slow : t -> int
(** Page-table walk; for tests cross-checking the counters. *)

val dirty_pages_slow : t -> int

val freeze : t -> unit
(** The capture barrier: every present mapping becomes read-only +
    copy-on-write with clean dirty bits (visible through all tables
    sharing these leaves), and the dirty counter resets. Costs
    O(root + leaves written since their last freeze); see
    {!Page_table.mark_all_cow_clean}. *)

val lifetime_zero_fills : t -> int

val lifetime_cow_copies : t -> int

val release : t -> unit
(** Return all private frames/leaves; the space must not be used after. *)
