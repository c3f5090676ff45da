(** Two-level page tables with structural sharing.

    This is the mechanism behind SEUSS's cheap deploys: "deployment
    consists mainly of a memory copy of page table structures" (Table 3).
    {!clone_shallow} copies only the root directory and shares the leaf
    tables; a leaf is privatized (copied) the first time a table writes
    through it, so the per-UC page-table overhead is proportional to the
    pages the UC actually dirties.

    Reference-count discipline: a frame holds one reference per leaf
    that names it. Installing a present entry with {!set} consumes one
    reference to its frame (the caller must hold it, e.g. fresh from
    [Frame.alloc]); overwriting or clearing a present entry releases the
    old frame's reference; privatizing a leaf takes, and releasing its
    last table drops, one reference for every present entry it contains,
    with one [Frame.incref_leaf] / [Frame.decref_leaf] call per leaf. *)

(** Packed page-table entries ([int]-encoded, absent = {!Entry.absent}). *)
module Entry : sig
  type t = int

  val absent : t

  val make :
    frame:Frame.frame ->
    writable:bool ->
    cow:bool ->
    dirty:bool ->
    t

  val present : t -> bool
  val frame : t -> Frame.frame
  val writable : t -> bool
  val cow : t -> bool
  val dirty : t -> bool

  val written : t -> t
  (** Same entry with the dirty bit set: a write's flags. *)

  val with_flags : ?writable:bool -> ?cow:bool -> ?dirty:bool -> t -> t
  (** Same frame, updated flags. *)
end

type t

val max_vpn : int
(** Virtual page numbers range over [\[0, max_vpn)] (1 GiB of VA with
    x86-64-like 512-entry tables — ample for one unikernel context). *)

val create : Frame.t -> t
(** An empty table drawing frames' refcount operations from the given
    allocator. *)

val clone_shallow : t -> t
(** Share all leaves with the source. This is the deploy and
    snapshot-freeze primitive. It costs O(directories the family has
    used), not O(512): a family ({!create} and every clone of it) gives
    a directory a root slot the first time one of its tables writes to
    it, so a root is only as wide as the directories in use (a power of
    two, at least 64). *)

val get : t -> vpn:int -> Entry.t

val set : t -> vpn:int -> Entry.t -> unit
(** Install/replace/clear the entry for [vpn], privatizing the leaf if it
    is shared. See the refcount discipline above. *)

(** {2 Resolving writes}

    Counters the write resolver moves page by page, owned by the caller
    (an address space): an exception mid-range leaves them exact for the
    pages resolved before it. *)
type write_counts = {
  mutable zero_fills : int;  (** absent pages given a fresh zero frame *)
  mutable cow_copies : int;  (** copy-on-write pages copied privately *)
  mutable dirty : int;
      (** pages that turned dirty; the owner resets it when it clears
          dirty bits *)
}

val write_pages :
  t -> vpn:int -> pages:int -> write_counts -> (int -> unit) -> unit
(** [write_pages t ~vpn ~pages c record] resolves a write to each page
    of [\[vpn, vpn + pages)], in vpn order, as x86 fault handling
    would:

    - an absent page maps a fresh frame from [Frame.alloc], writable
      and dirty (a zero fill);
    - a copy-on-write page maps a fresh frame the same way and drops
      its reference to the shared one (a private copy);
    - a writable page gets the dirty bit.

    [record] hears the vpn of every zero fill and private copy, in
    order. The walk goes a leaf at a time: a leaf shared with another
    table is privatized (see {!set}) on its first page whose entry
    changes, right after that page's [Frame.alloc], and at most once;
    a leaf whose writable pages are already dirty is never copied. Every frame id, slab slot and reference therefore comes out
    exactly as from one {!get} and {!set} per page.
    @raise Frame.Out_of_memory when an allocation fails: the pages
    before it stay resolved and counted, the failing page is untouched.
    @raise Invalid_argument on a present page that is neither writable
    nor copy-on-write, or a vpn out of range, after resolving the pages
    before it. *)

val mark_all_cow_clean : t -> unit
(** In-place, across *shared* leaves: every present entry becomes
    read-only + copy-on-write with the dirty bit cleared. This is the
    snapshot-capture barrier — intentionally visible through every table
    sharing these leaves (the captured UC keeps running but now faults on
    write, exactly like the hardware after write-protecting a live
    address space).

    Cost: O(root + leaves written since their last freeze), not
    O(mapped pages). Each leaf carries a frozen bit with the invariant
    {e frozen ⇒ every present entry is already read-only + COW and
    clean}: this function sets it, every {!set} through the leaf clears
    it, and a privatized copy inherits it.
    A frozen leaf is a fixed point of the barrier and is skipped; an
    unfrozen one — shared or not — is rewritten in place and frozen for
    every table sharing it. *)

val fold_present : t -> init:'a -> f:('a -> vpn:int -> Entry.t -> 'a) -> 'a
(** Fold over the present entries in ascending vpn order. *)

val fold_delta :
  parent:t -> t -> init:'a -> f:('a -> vpn:int -> Entry.t -> 'a) -> 'a
(** Fold over the pages this table maps through a {e different} frame
    than [parent] (or maps where [parent] maps nothing) — the delta
    layer a stacked snapshot stores beyond structural sharing. Leaves
    physically shared with [parent] are skipped wholesale (structural
    sharing makes their entries identical), so the walk costs
    O(privatized leaves), not O(address space). Pages come in ascending
    vpn order; [parent] may belong to another family. *)

val count_present : t -> int

val count_dirty : t -> int

val leaf_tables : t -> int
(** Materialized leaves reachable from this root. *)

val private_leaf_tables : t -> int
(** Leaves with reference count 1 (not shared with any other table). *)

val structure_bytes : t -> int
(** Host-page-table overhead accounted to this table: the root plus the
    leaves only it reaches (reference count 1). A leaf shared between
    tables is charged to none of them. The root is charged as the
    modelled x86 512-entry (4 KiB) directory, whatever width this
    table's root has on the host. *)

val expected_refcounts : t list -> (int, int) Hashtbl.t
(** Validation helper for tests: per-frame reference counts implied by a
    family of live tables — one reference per present entry per
    {e distinct} leaf (physically shared leaves are counted once). A
    consistent allocator reports exactly these refcounts, and exactly
    [Hashtbl.length] frames live, when the family lists every table
    sharing its leaves. *)

val shares_leaf : t -> t -> vpn:int -> bool
(** Validation helper for tests: whether both tables reach [vpn] through
    the same physical leaf — the entries an in-place {!mark_all_cow_clean}
    of one table rewrites in the other. *)

val release : t -> unit
(** Drop this table: unshare every leaf, releasing frame references for
    leaves whose count reaches zero, in ascending vpn order (which fixes
    the frame ids the allocator hands out next). The table must not be
    used after. *)
