(** seussdead — the interprocedural blocking/deadlock pass.

    Computes may-block and may-acquire summaries over the shared call
    graph and reports [block-in-handler] (a blocking primitive reachable
    from a callback at one of the audited registrars in {!Contexts}, or
    from a binding marked [(* seussdead: atomic <reason> *)]),
    [lock-order] (a cycle among the lock classes named by
    [(* seussdead: lock <class> *)] at [Semaphore.create] sites, or a
    create without one) and [unreleased-acquire]. Suppressions use
    [(* seussdead: allow <rule> — <reason> *)]. *)

val pass : Pass.t
