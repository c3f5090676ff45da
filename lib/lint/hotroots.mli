(** The registered hot roots seeding {!Heat}'s reachability worklist.

    A root is a (repo-relative file, top-level binding) pair naming code
    executed O(events) or O(samples) per run — the engine dispatch loop
    and queue operations, the observability emit path and latency
    breakdown fold, counter bumps and trace-context forks. An entry
    whose file is scanned but no longer defines the binding, or is
    missing from a scanned directory, is a [stale-hot-root] finding. Everything transitively referenced from a
    root is analyzed under the allocation rules ({!Rules.heat}).

    The registry is curated by hand; fixtures and out-of-tree code seed
    extra roots with [(* seussheat: hot — <reason> *)] markers instead
    of editing this list. *)

type root = {
  hr_file : string;  (** repo-relative defining file *)
  hr_binding : string;  (** top-level binding name *)
  hr_why : string;  (** why this path is O(events) *)
}

val registry : root list

val mem : file:string -> binding:string -> bool
