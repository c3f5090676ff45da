(** Happens-before schedule sanitizer.

    Tracks cross-process access to registered shared cells and reports
    pairs that are unsynchronized *at the same simulated timestamp* —
    precisely the accesses whose relative order the tie shuffler
    ({!Engine.create}'s [tie_seed]) can permute. Accesses separated by
    simulated time are serialized by the clock and never reported.

    Ordering edges: process spawn (child after parent's history at the
    spawn point) and release→acquire pairs through the blocking
    primitives ({!Semaphore}, {!Channel}, {!Ivar}), which each carry a
    {!sync} record. Edges compose via vector clocks.

    The checker is armed exactly on a checked engine
    ([Engine.create ~check:true]); its state is made at the first spawn
    or hook there, so spawn edges are tracked from the root process
    down. On an unchecked engine every hook is a no-op and the run is
    bit-identical to a build without the checker. *)

type kind = Write_write | Read_write

val kind_name : kind -> string
(** ["write/write"] or ["read/write"]. *)

type race = {
  cell : string;
  kind : kind;
  time : float;  (** simulated instant of the colliding pair *)
  first_pid : int;  (** process that accessed first in executed order *)
  second_pid : int;
}

val add_reporter : Engine.t -> (race -> unit) -> unit
(** Also deliver each race as it is found (e.g. to emit a typed [Obs]
    event). Reporters accumulate: every registered reporter receives
    every subsequent race, so each node env on a shared engine can log
    races to its own timeline. Races found before any reporter is
    registered remain visible via {!races} only. A reporter runs
    inside the access it reports, in an atomic section
    (["race reporter"]), so it must not suspend.
    @raise Invalid_argument if the engine is not checked. *)

val races : Engine.t -> race list
(** Races found so far, oldest first; [[]] on an unchecked engine. *)

val race_count : Engine.t -> int

(** {1 Registered cells} *)

type cell

val cell : name:string -> cell
(** A shared cell under watch. Creation is engine-independent and free;
    accesses only record when the running engine is checked. A cell
    used on several engines in turn forgets what it recorded under
    another engine's checker. *)

val read : cell -> unit
(** Record that the calling process read the cell. *)

val write : cell -> unit
(** Record that the calling process wrote the cell. *)

(** {1 Sync edges (for blocking-primitive implementations)} *)

type sync

val make_sync : unit -> sync

val signal : sync -> unit
(** The caller releases/sends/fills: publish its history on the object. *)

val observe : sync -> unit
(** The caller acquired/received/read: join the object's published
    history into its own. *)
