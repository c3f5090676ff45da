(** The audited frame acquire/release site list.

    Every call to [Frame.alloc] / [Frame.incref] / [Frame.decref] (or
    the per-leaf [Frame.incref_leaf] / [Frame.decref_leaf], audited as
    [Incref] / [Decref]) must happen inside one of the audited (file,
    top-level binding, operation) triples; {!Check} reports any other call site as
    [frame-site]. The list is the reviewable inventory of where physical
    frames change hands — when adding a site, check its release pairing
    before extending it. *)

type op = Alloc | Incref | Decref

val op_of_name : string -> op option

val audited : (string * string * op) list
(** (repo-relative file, enclosing top-level binding, operation). *)

val allowed : file:string -> binding:string -> op -> bool
(** Whether the triple is in {!audited}. *)
