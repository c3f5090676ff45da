(** Immutable execution-state templates and snapshot stacks (§3).

    A snapshot freezes a UC: its page table (entries read-only +
    copy-on-write), its guest resume state, and the diff size — the
    pages dirtied since the UC was created. The [parent] link forms the
    snapshot stack: a function snapshot physically shares every page it
    did not modify with the runtime snapshot below it, which is where
    the 202 MB -> 102 MB example of §3 (and the 54,000-UC density of
    Table 3) comes from.

    Deletion safety (§6): a snapshot is deleted only when nothing
    depends on it — dependents are live UCs deployed from it plus child
    snapshots stacked on it. *)

type t = private {
  id : int;
  name : string;
  image : Unikernel.Image.t;
  parent : t option;
  table : Mem.Page_table.t;
  guest : Unikernel.Guest.snapshot_state;
  diff_pages : int;
  total_pages : int;  (** full mapping, diff + everything shared below *)
  mutable dependents : int;
  mutable deleted : bool;
  mutable working_set : int array option;
      (** vpns demand-faulted by the first completed invocation deployed
          from this snapshot, in fault order (REAP-style record) *)
}

val capture :
  env:Osenv.t ->
  name:string ->
  parent:t option ->
  image:Unikernel.Image.t ->
  space:Mem.Addr_space.t ->
  guest:Unikernel.Guest.state ->
  t
(** Freeze the UC's current state. Must be called from a simulation
    process while the guest is parked at a breakpoint; charges
    [Cost.capture_fixed + diff_pages * Cost.capture_per_dirty_page] of
    core time. The captured UC keeps running afterwards — its next write
    to any frozen page takes a COW fault. Registers the parent
    dependency. *)

val import :
  env:Osenv.t ->
  name:string ->
  local_base:t ->
  remote:t ->
  transfer_time:float ->
  t
(** DR-SEUSS (§9, future work): materialize a remote node's function
    snapshot locally. Snapshots are immutable and location-independent
    ("read-only and deploy-anywhere"), and both nodes share the same
    base runtime image, so only the function diff travels: the local
    copy stacks the remote's diff pages (freshly allocated frames) on
    [local_base], reuses the remote's frozen guest state, and charges
    [transfer_time] of wall-clock (network) plus the per-page install
    cost of core time.
    @raise Invalid_argument if images differ, [remote] is not a depth-2
    function snapshot, or either snapshot is deleted. *)

val addref : t -> unit
(** Record a dependent (a deployed UC or a child snapshot).
    @raise Invalid_argument on a deleted snapshot. *)

val decref : t -> unit

val dependents : t -> int

val record_working_set : t -> int array -> unit
(** Attach the ordered vpns demand-faulted during the first completed
    invocation from this snapshot. First record wins — later calls (and
    empty traces) are ignored, mirroring REAP's
    record-once/replay-forever design. The snapshot keeps the array
    itself: the caller must not mutate it afterwards.
    @raise Invalid_argument on a deleted snapshot. *)

val working_set : t -> int array option
(** The recorded working set, in original fault order, if any. The
    array is the stored one, not a copy: read it, never write it. *)

val working_set_pages : t -> int
(** O(1): the recorded working set's length, 0 if none was recorded. *)

val is_deleted : t -> bool

val try_delete : env:Osenv.t -> t -> bool
(** Delete if nothing depends on it: releases the table's frame
    references and drops the parent dependency (cascading a parent
    delete is the cache's policy decision, not automatic). Returns
    [false] — and does nothing — while dependents remain or once
    another call has claimed the delete: the snapshot is marked deleted
    before {!Cost.destroy} is charged. *)

val diff_bytes : t -> int64

val total_bytes : t -> int64

val depth : t -> int
(** 1 for a base runtime snapshot, 2 for a function snapshot, ... *)
