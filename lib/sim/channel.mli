(** Unbounded FIFO channels with blocking receive.

    The message fabric of the simulation: the benchmark's shared work
    queue, the Kafka-like bus partitions, and guest/host byte streams are
    all channels. *)

type 'a t

val create : unit -> 'a t

val send : 'a t -> 'a -> unit
(** Never blocks; wakes one waiting receiver if any.
    @raise Invalid_argument inside an atomic section
    ({!Engine.atomic}), like the receives. *)

val recv : 'a t -> 'a
(** Blocks the current process until an item is available. Competing
    receivers are served in FIFO order.
    @raise Invalid_argument inside an atomic section, also when an item
    is queued. *)

val try_recv : 'a t -> 'a option

val recv_timeout : 'a t -> timeout:float -> 'a option
(** [Some item] if one arrives for this receiver within [timeout]
    simulated seconds, else [None].
    @raise Invalid_argument inside an atomic section, as {!recv}. *)
