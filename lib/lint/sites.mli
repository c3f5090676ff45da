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

(** {1 Ownership transfer registry}

    Acquire sites whose resource is handed to a longer-lived structure
    instead of being released before return; the seussown pass
    ({!Own}) treats them as balanced. Each entry records where the
    matching release lives. *)

type resource = Frame_ref | Snap_ref | Uc_ctx

val resource_name : resource -> string
(** ["frame"], ["snapshot"] or ["uc"]. *)

val transfers : (string * string * resource * string) list
(** (repo-relative file, enclosing top-level binding, resource, where
    the release lives). *)

val transfer : file:string -> binding:string -> resource -> string option
(** The registered release location for the triple, if any. *)
