(** Deterministic, sorted views over [Hashtbl].

    Raw [Hashtbl.iter]/[Hashtbl.fold] visit buckets in insertion-history
    order, which leaks nondeterminism into anything order-sensitive
    downstream; seusslint bans them outside this module. These wrappers
    visit bindings in ascending key order (polymorphic [compare]), so
    dumps, teardown sweeps and accumulated lists are reproducible by
    construction. Cost: one intermediate list and a sort per call — fine
    for dump/teardown paths; keep them off per-event hot paths. *)

val bindings : ('a, 'b) Hashtbl.t -> ('a * 'b) list
(** All bindings, sorted by key ascending. *)

val bindings_by : ('a -> 'a -> int) -> ('a, 'b) Hashtbl.t -> ('a * 'b) list
(** [bindings_by cmp tbl] is {!bindings} ordered by [cmp] — a
    monomorphic comparison such as [String.compare] that orders keys
    as [compare] does, without its generic dispatch. *)

val keys : ('a, 'b) Hashtbl.t -> 'a list
(** All keys, sorted ascending. *)

val iter : ('a -> 'b -> unit) -> ('a, 'b) Hashtbl.t -> unit
(** [iter f tbl] applies [f] in ascending key order. *)

val fold : ('a -> 'b -> 'acc -> 'acc) -> ('a, 'b) Hashtbl.t -> 'acc -> 'acc
(** [fold f tbl init] folds in ascending key order. *)
