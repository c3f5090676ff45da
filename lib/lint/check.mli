(** The base pass: per-file syntactic rules, decidable on names alone
    (no typing pass), suppressed with
    [(* seusslint: allow <rule> — <reason> *)]. *)

val pass : Pass.t
