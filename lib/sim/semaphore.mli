(** Counting semaphores with FIFO wakeup.

    Models contended resources: CPU cores on the compute node, the Docker
    daemon's effective creation parallelism, the shim's single TCP
    connection, and the benchmark's client thread pool. *)

type t

val create : int -> t
(** [create n] has [n] permits. @raise Invalid_argument if [n < 0]. *)

val capacity : t -> int

val available : t -> int

val in_use : t -> int
(** [capacity t - available t]. *)

val acquire : t -> unit
(** Blocks the current process until a permit is available.
    @raise Invalid_argument inside an atomic section
    ({!Engine.atomic}), also when a permit is free. *)

val try_acquire : t -> bool

val release : t -> unit
(** @raise Invalid_argument if releasing above capacity. *)

val with_permit : t -> (unit -> 'a) -> 'a
(** Acquire, run, release (also on exception).
    @raise Invalid_argument inside an atomic section, as {!acquire}. *)
