(** Array-backed binary min-heap.

    Used by {!Engine} as the pending-event queue; generic so tests and other
    substrates can reuse it. Not thread-safe (the simulator is
    single-threaded and deterministic by design). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (minimum first). *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** [peek t] is the minimum element without removing it. *)

val pop : 'a t -> 'a option
(** [pop t] removes and returns the minimum element. *)
