(** The linter: per-file syntactic rules, decidable on names alone (no
    typing pass), suppressed with
    [(* seusslint: allow <rule> — <reason> *)]. *)

val check_tree : ?strip_prefix:string -> string list -> Source.violation list
(** Every rule over {!Source.load_tree}: the violations, a [parse-error]
    per unparsable file and the allow comments' own
    [bad-allow]/[unused-allow], sorted.
    @raise Sys_error as {!Source.load_tree} does. *)

val check_file : ?rel:string -> string -> Source.violation list
(** {!check_tree} over one file; [rel] overrides its repo-relative path. *)
