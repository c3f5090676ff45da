(** seussdead — the interprocedural blocking pass.

    Computes a may-block summary over the shared call graph and reports
    [block-in-handler]: a blocking primitive reachable from a callback
    at one of the audited registrars in {!Contexts}, or from a binding
    marked [(* seussdead: atomic <reason> *)]. Suppressions use
    [(* seussdead: allow <rule> — <reason> *)]. *)

val pass : Pass.t
