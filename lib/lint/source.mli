(** Loaded sources and the violations every pass reports against them.

    Reading, comment-lexing and parsing dominate a lint run's wall time
    and every pass needs the identical products, so a tree is loaded
    once into [t]s that all passes share ([seusslint --pass all] parses
    each file exactly once). *)

type violation = {
  file : string;  (** repo-relative path *)
  line : int;
  col : int;
  rule : string;  (** {!Rules.name}, or a meta-diagnostic id *)
  message : string;
}

val compare_violation : violation -> violation -> int
(** Orders by (file, line, col, rule) for stable reports. *)

val violation : string -> int -> int -> string -> string -> violation
(** [violation file line col rule message]. *)

val at : string -> Location.t -> string -> string -> violation
(** [at file loc rule message]: a violation at the start of [loc]. *)

type t = {
  rel : string;  (** repo-relative path used for classification *)
  comments : (string * Location.t) list;
  ast : (Parsetree.structure, exn) result;
      (** the parse, or the exception reported as [parse-error] *)
}

val load : ?rel:string -> string -> t
(** Read, lex and parse one file. [rel] defaults to the path with
    leading [./]/[../] segments stripped. *)

val load_tree : ?strip_prefix:string -> string list -> t list
(** Load every [.ml] under the given roots (sorted, skipping [_build]
    and dot-directories); a root that is an [.ml] file is loaded as
    itself. [strip_prefix] is dropped from the front of each relative
    path before classification, so a fixture tree like
    [test/lint_fixtures/lib] is linted as [lib/].
    @raise Sys_error naming the root when a root is missing, unreadable,
    or neither a directory nor an [.ml] file. *)

val scanned_dirs : ?strip_prefix:string -> string list -> string list
(** The directories {!load_tree} walks for the same roots, relative
    like its sources: every directory root and its subdirectories
    (none for a file root). A registered file missing from one of them
    is known to be gone. *)
