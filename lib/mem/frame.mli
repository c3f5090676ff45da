(** Physical frame allocator with reference counting.

    Frames are metadata-only (an id plus a refcount): the simulation
    accounts 4 KiB per frame against the node budget without backing each
    frame with host memory, which is what makes the full 88 GB density
    experiment (Table 3) runnable on a laptop. The host cost is one word
    per frame id, the refcount cell, which also carries the free list
    while the frame is free; a second word per id (the content tag) is
    allocated only once {!set_tag} is first called.

    Reference counts track *mappings*: a frame shared read-only between a
    snapshot and the UCs deployed from it has one reference per page-table
    leaf that names it, and is returned to the free list when the count
    reaches zero. The free list is LIFO: {!alloc} hands out the most
    recently freed id first, and a fresh id only when none is free. *)

type t

type frame = int
(** Frame identifier. Valid ids are non-negative; ids are recycled. *)

exception Out_of_memory
(** Raised by {!alloc} when the node budget is exhausted. The SEUSS node
    catches this to trigger its OOM reclaimer; the density experiments
    catch it to find the capacity limit. *)

val create : ?budget_bytes:int64 -> unit -> t
(** [create ()] models the paper's 88 GB node; pass [budget_bytes] to
    scale experiments down. *)

val budget_bytes : t -> int64

val budget_frames : t -> int

val alloc : t -> frame
(** A fresh frame with refcount 1. @raise Out_of_memory at budget. *)

val incref : t -> frame -> unit

val decref : t -> frame -> unit
(** Frees the frame when the count reaches zero.
    @raise Invalid_argument on a dead frame. *)

val incref_leaf : t -> int array -> pos:int -> unit
(** [incref_leaf t ents ~pos] takes one reference to the frame of every
    present entry among the [Mconfig.entries_per_table] packed
    page-table entries [ents.(pos ..)] — what privatizing a shared leaf
    owes. Entries are visited in ascending order.
    @raise Invalid_argument on the first dead frame met (earlier
    entries keep their new reference). *)

val decref_leaf : t -> int array -> pos:int -> unit
(** The release of {!incref_leaf}: one {!decref} per present entry, in
    ascending entry order, so frames freed together go on the free list
    in that order (and come back off it in the reverse one). @raise Invalid_argument on a dead frame. *)

val refcount : t -> frame -> int

val is_live : t -> frame -> bool
(** Whether [frame] currently names an allocated frame (refcount > 0).
    Never raises — the snapshot store uses it to validate its content
    index against frames freed behind its back. *)

val set_tag : t -> frame -> int -> unit
(** Stamp a nonzero content tag on a live frame. The snapshot store tags
    each frame it indexes with the page's content hash; the tag is
    cleared automatically when the frame's refcount reaches zero, so a
    recycled frame id can never present stale content.
    @raise Invalid_argument on a dead frame or a zero tag. *)

val tag : t -> frame -> int
(** The frame's content tag ([0] = untagged, and every frame of an
    allocator that has never tagged one).
    @raise Invalid_argument on a dead frame. *)

val used_frames : t -> int

val used_bytes : t -> int64

val free_bytes : t -> int64

val peak_frames : t -> int
(** High-water mark of simultaneously live frames. *)
