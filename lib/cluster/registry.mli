(** The DR-SEUSS global snapshot registry (§9, future work).

    Tracks which compute nodes hold a function snapshot. Entries are
    metadata only — snapshots themselves are immutable page images that
    stay on their node until fetched. *)

type location = { node_id : int; snapshot : Seuss.Snapshot.t }

type t

val create : unit -> t

val publish : t -> fn_id:string -> node_id:int -> Seuss.Snapshot.t -> unit
(** Record that [node_id] holds a snapshot for [fn_id]. Re-publishing
    from the same node replaces the entry. *)

val locate : t -> fn_id:string -> location list
(** All live holders (deleted snapshots are filtered and dropped). *)

val evict : t -> fn_id:string -> node_id:int -> unit
(** Drop one holder entry (the fault-plane path: the holder is dead or
    its entry is stale). Other holders of [fn_id] are untouched. *)

val held_by : t -> node_id:int -> string list
(** The fn_ids [node_id] currently holds, sorted — the work-list for
    post-crash eviction and re-publication. *)

val entries : t -> int
