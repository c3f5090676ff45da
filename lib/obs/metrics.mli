(** The metrics registry: named, labelled counters.

    Counters are registered by [(name, labels)] — registering the same
    pair twice returns the same counter, so hot paths can look handles
    up per call without coordination. {!sum_counters} is a view over
    the live counters: consumers such as [Seuss.Node.stats] derive
    their numbers from the registry instead of maintaining parallel
    ints. A number that already lives elsewhere (a store's own counts,
    the event log's drop count, a latency distribution in
    {!Breakdown}) is read there, not copied in here. *)

type t

type labels = (string * string) list
(** Order-insensitive: labels are canonicalised (sorted by key) at
    registration. *)

type counter

val create : unit -> t

val counter : t -> ?labels:labels -> string -> counter

val inc : counter -> unit
(** Add one. *)

val add : counter -> int -> unit
(** [add c n] adds [n].
    @raise Invalid_argument if [n] is negative (counters only go up). *)

val value : counter -> int

val sum_counters : t -> ?where:labels -> string -> int
(** Sum of every counter named [name] whose labels include all [where]
    pairs — e.g. total invocations across runtimes for one path. *)
