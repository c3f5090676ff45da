(** Write-once synchronization variables.

    The simulator's request/response plumbing: a requester blocks on
    {!read} while a responder (or a watchdog modeling a timeout) calls
    {!fill} / {!try_fill}. First write wins; waiters are woken in FIFO
    order at the fill timestamp. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** @raise Invalid_argument if already filled. *)

val try_fill : 'a t -> 'a -> bool
(** [try_fill t v] fills and returns [true], or returns [false] if [t]
    was already full. Used to race a responder against a timeout. *)

val is_full : 'a t -> bool

val read : 'a t -> 'a
(** Blocks the current process until the ivar is filled.
    @raise Invalid_argument inside an atomic section
    ({!Engine.atomic}), also when the ivar is already full. *)
