(** seussown — the interprocedural ownership/lifecycle typestate pass.

    Tracks [Frame.alloc]/[Frame.incref] -> [Frame.decref],
    [Snapshot.addref] -> [Snapshot.decref] and [Uc.boot]/[Uc.deploy]
    -> [Uc.destroy] (destroy-at-most-once). A may-release fixpoint over
    the shared call graph catches acquires whose callee cone never
    releases the class ([own-escape], cleared by the
    {!Sites.transfers} registry); a per-path walk with must-semantics
    branch joins catches [own-exn-leak], [own-double-release],
    [own-use-after-destroy] and [own-unbalanced]. Suppression:
    [(* seussown: transfer — <reason> *)]. *)

val pass : Pass.t
