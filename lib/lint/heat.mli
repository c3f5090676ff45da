(** seussheat — the hot-path allocation/boxing pass.

    Marks everything the shared call graph reaches from the registered
    hot roots ({!Hotroots.registry}, plus bindings carrying
    [(* seussheat: hot — <reason> *)]) as hot, and reports the
    allocation classes of its rules at every site inside a hot binding,
    each with the root-to-site chain that makes it hot.
    [(* seussheat: cold — <reason> *)] covering a binding's [let] line
    prunes the binding from the hot set; covering any other line
    silences sites in expressions starting on a covered line,
    whole-subtree. *)

val pass : Pass.t
